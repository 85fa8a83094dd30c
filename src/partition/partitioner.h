#ifndef ST4ML_PARTITION_PARTITIONER_H_
#define ST4ML_PARTITION_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "index/stbox.h"

namespace st4ml {

/// A spatio-temporal partitioner: trained once on (a sample of) record
/// envelopes, then consulted per record.
///
/// Assign contracts:
///  - `duplicate == false`: exactly one partition id — the PRIMARY, chosen
///    from the record's ST center, so every record has one home and on-disk
///    layouts never store a record twice.
///  - `duplicate == true`: every partition the envelope intersects (always
///    including the primary), for operators like companion detection that
///    need boundary-crossing records visible on both sides.
///
/// Out-of-extent records are clamped into the nearest partition rather than
/// dropped: partitioning must be total or selection would silently lose
/// records that arrive after training.
///
/// Threading and determinism: `Assign` must be thread-safe on a trained
/// partitioner, because TrySTPartition calls it from the worker pool; and
/// `Train` must be a deterministic function of the envelopes in the order
/// given (TrySTPartition passes them in global scan order). T-STR breaks
/// ties between equal time centers by that input order.
class STPartitioner {
 public:
  virtual ~STPartitioner() = default;

  /// Learns partition boundaries from record envelopes.
  virtual void Train(const std::vector<STBox>& boxes) = 0;

  virtual int num_partitions() const = 0;

  /// Partition ids for one record (see class comment). `record_id` feeds
  /// content-independent schemes like hash partitioning.
  virtual std::vector<int> Assign(const STBox& box, bool duplicate,
                                  uint64_t record_id) const = 0;
};

}  // namespace st4ml

#endif  // ST4ML_PARTITION_PARTITIONER_H_
