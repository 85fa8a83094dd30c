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
/// A bad partitioner (null, trained to nothing, out-of-range assignment)
/// surfaces as the returned Status.
template <typename T, typename BoxFn, typename IdFn>
StatusOr<Dataset<T>> TrySTPartition(const Dataset<T>& data,
                                    STPartitioner* partitioner, BoxFn box_of,
                                    IdFn id_of,
                                    STPartitionOptions options = {}) {
  if (partitioner == nullptr) {
    return Status::InvalidArgument("STPartition requires a partitioner");
  }
  ScopedSpan op(data.context()->tracer(), span_category::kOperation,
                "st_partition");
  std::vector<T> records = data.Collect();
  std::vector<STBox> boxes;
  boxes.reserve(records.size());
  for (const T& r : records) boxes.push_back(box_of(r));
  partitioner->Train(boxes);

  int n = partitioner->num_partitions();
  if (n <= 0) return Status::Internal("partitioner produced no partitions");
  typename Dataset<T>::Partitions parts(static_cast<size_t>(n));
  uint64_t moved = 0;
  uint64_t bytes = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    uint64_t id = static_cast<uint64_t>(id_of(records[i]));
    for (int p : partitioner->Assign(boxes[i], options.duplicate, id)) {
      if (p < 0 || p >= n) {
        return Status::Internal("partition assignment out of range");
      }
      parts[static_cast<size_t>(p)].push_back(records[i]);
      moved += 1;
      bytes += ApproxShuffleBytes(records[i]);
    }
  }
  internal::Counters(*data.context())
      .AddShuffle(ShuffleOp::kStPartition, moved, bytes);
  op.AddArg("records", moved);
  op.AddArg("bytes", bytes);
  return Dataset<T>::FromPartitions(data.context(), std::move(parts));
}

}  // namespace st4ml

#endif  // ST4ML_PARTITION_ST_PARTITION_OPS_H_
