#ifndef ST4ML_PARTITION_ST_PARTITION_OPS_H_
#define ST4ML_PARTITION_ST_PARTITION_OPS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/dataset.h"
#include "partition/partitioner.h"

namespace st4ml {

struct STPartitionOptions {
  /// Replicate each record into EVERY partition its envelope intersects
  /// instead of only its primary. Needed by partition-local operators
  /// (companion detection) that must see boundary-crossing neighbors.
  bool duplicate = false;
};

/// Repartitions a dataset by spatio-temporal locality: trains `partitioner`
/// on every record envelope, then moves each record to its assigned
/// partition(s). A full shuffle — each placed record is charged to the
/// engine metrics, which is exactly the cost the T-STR experiments weigh
/// against the locality it buys.
///
/// Every phase runs on the context's pool: envelopes per input partition,
/// Assign per input partition (so `Assign` must be thread-safe), and a
/// gather per output partition that copies each placed record once. The
/// result is the serial loop's: training sees the envelopes in global scan
/// order, and each output partition lists its records in that same order.
///
/// A bad partitioner (null, trained to nothing, out-of-range assignment)
/// or a failing engine task surfaces as the returned Status; nothing
/// throws.
template <typename T, typename BoxFn, typename IdFn>
StatusOr<Dataset<T>> TrySTPartition(const Dataset<T>& data,
                                    STPartitioner* partitioner, BoxFn box_of,
                                    IdFn id_of,
                                    STPartitionOptions options = {}) {
  if (partitioner == nullptr) {
    return Status::InvalidArgument("STPartition requires a partitioner");
  }
  ExecutionContext& ctx = *data.context();
  ScopedSpan op(ctx.tracer(), span_category::kOperation, "st_partition");
  const size_t num_inputs = data.num_partitions();
  // Global scan index of each input partition's first record.
  std::vector<size_t> starts(num_inputs + 1, 0);
  for (size_t p = 0; p < num_inputs; ++p) {
    starts[p + 1] = starts[p] + data.partition(p).size();
  }
  std::vector<STBox> boxes(starts.back());
  ST4ML_RETURN_IF_ERROR(
      ctx.TryRunParallel("st_partition/boxes", num_inputs, [&](size_t p) {
        const std::vector<T>& part = data.partition(p);
        for (size_t j = 0; j < part.size(); ++j) {
          boxes[starts[p] + j] = box_of(part[j]);
        }
        return Status::Ok();
      }));
  partitioner->Train(boxes);

  int n = partitioner->num_partitions();
  if (n <= 0) return Status::Internal("partitioner produced no partitions");
  const size_t num_targets = static_cast<size_t>(n);
  // routes[p][t]: positions in input partition p of the records bound for
  // output partition t, ascending.
  std::vector<std::vector<std::vector<size_t>>> routes(
      num_inputs, std::vector<std::vector<size_t>>(num_targets));
  ST4ML_RETURN_IF_ERROR(
      ctx.TryRunParallel("st_partition/assign", num_inputs, [&](size_t p) {
        const std::vector<T>& part = data.partition(p);
        for (size_t j = 0; j < part.size(); ++j) {
          uint64_t id = static_cast<uint64_t>(id_of(part[j]));
          for (int t : partitioner->Assign(boxes[starts[p] + j],
                                           options.duplicate, id)) {
            if (t < 0 || t >= n) {
              return Status::Internal("partition assignment out of range");
            }
            routes[p][static_cast<size_t>(t)].push_back(j);
          }
        }
        return Status::Ok();
      }));

  typename Dataset<T>::Partitions parts(num_targets);
  std::vector<uint64_t> partial_bytes(num_targets, 0);
  ST4ML_RETURN_IF_ERROR(
      ctx.TryRunParallel("st_partition/scatter", num_targets, [&](size_t t) {
        size_t count = 0;
        for (size_t p = 0; p < num_inputs; ++p) count += routes[p][t].size();
        parts[t].reserve(count);
        uint64_t bytes = 0;
        for (size_t p = 0; p < num_inputs; ++p) {
          const std::vector<T>& part = data.partition(p);
          for (size_t j : routes[p][t]) {
            bytes += ApproxShuffleBytes(part[j]);
            parts[t].push_back(part[j]);
          }
        }
        partial_bytes[t] = bytes;
        return Status::Ok();
      }));
  uint64_t moved = 0;
  uint64_t bytes = 0;
  for (size_t t = 0; t < num_targets; ++t) {
    moved += parts[t].size();
    bytes += partial_bytes[t];
  }
  internal::Counters(ctx).AddShuffle(ShuffleOp::kStPartition, moved, bytes);
  op.AddArg("records", moved);
  op.AddArg("bytes", bytes);
  return Dataset<T>::FromPartitions(data.context(), std::move(parts));
}

}  // namespace st4ml

#endif  // ST4ML_PARTITION_ST_PARTITION_OPS_H_
