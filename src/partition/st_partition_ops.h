#ifndef ST4ML_PARTITION_ST_PARTITION_OPS_H_
#define ST4ML_PARTITION_ST_PARTITION_OPS_H_

#include <cstddef>
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

/// TrySTPartition trains its partitioner on at most this many envelopes.
/// Chosen by the balance sweep in EXPERIMENTS.md ("Sampled ST-partition
/// training"): T-STR(4,4) trained on it stays within a few percent of
/// perfect balance, at a fraction of the cost of training on everything.
inline constexpr size_t kSTPartitionTrainSample = 8192;

namespace partition_internal {

/// An evenly strided sample of `items`: element k * n / size for
/// k < size, in order. An input of at most `size` items is returned whole.
template <typename V>
std::vector<V> StridedSample(const std::vector<V>& items, size_t size) {
  const size_t n = items.size();
  if (n <= size) return items;
  std::vector<V> sample;
  sample.reserve(size);
  for (size_t k = 0; k < size; ++k) sample.push_back(items[k * n / size]);
  return sample;
}

}  // namespace partition_internal

/// Repartitions a dataset by spatio-temporal locality: samples the record
/// envelopes, trains `partitioner` on the sample (boundaries), then moves
/// each record to its assigned partition(s). A full shuffle — each placed
/// record is charged to the engine metrics, which is exactly the cost the
/// T-STR experiments weigh against the locality it buys.
///
/// Training sees the strided sample of kSTPartitionTrainSample envelopes in
/// global scan order (all of them for a smaller input), so the layout does
/// not depend on the worker count or the input partitioning. Every other
/// phase runs on the context's pool: envelopes per input partition,
/// AssignTo per input partition into one reused buffer (so it must be
/// thread-safe), and a gather per output partition. Each output partition
/// lists its records in global scan order.
///
/// `data` is a sink. When the caller hands over the sole handle
/// (std::move) and `duplicate` is off, each record is moved to its one
/// home; otherwise it is copied, once per placement. Either way the shuffle
/// counters charge every placement.
///
/// A bad partitioner (null, trained to nothing, out-of-range assignment)
/// or a failing engine task surfaces as the returned Status; nothing
/// throws.
template <typename T, typename BoxFn, typename IdFn>
StatusOr<Dataset<T>> TrySTPartition(Dataset<T> data,
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
  partitioner->Train(
      partition_internal::StridedSample(boxes, kSTPartitionTrainSample));

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
        std::vector<int> targets;
        for (size_t j = 0; j < part.size(); ++j) {
          uint64_t id = static_cast<uint64_t>(id_of(part[j]));
          targets.clear();
          partitioner->AssignTo(boxes[starts[p] + j], options.duplicate, id,
                                &targets);
          for (int t : targets) {
            if (t < 0 || t >= n) {
              return Status::Internal("partition assignment out of range");
            }
            routes[p][static_cast<size_t>(t)].push_back(j);
          }
        }
        return Status::Ok();
      }));

  // Without duplicates every record has exactly one home, so a sole
  // owner's records move: each is touched by exactly one gather task.
  typename Dataset<T>::Partitions* owned =
      options.duplicate ? nullptr : data.SoleOwnedPartitions();
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
            if (owned != nullptr) {
              parts[t].push_back(std::move((*owned)[p][j]));
            } else {
              parts[t].push_back(part[j]);
            }
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
