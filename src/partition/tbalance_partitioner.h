#ifndef ST4ML_PARTITION_TBALANCE_PARTITIONER_H_
#define ST4ML_PARTITION_TBALANCE_PARTITIONER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "partition/partitioner.h"

namespace st4ml {

/// Temporal-only equal-count slicing (the "T-balance" baseline): perfect
/// temporal locality and balance, no spatial awareness at all. The lower
/// bound T-STR improves on by sub-tiling each slice spatially.
class TBalancePartitioner : public STPartitioner {
 public:
  explicit TBalancePartitioner(int num_partitions)
      : num_partitions_(num_partitions) {
    ST4ML_CHECK(num_partitions > 0) << "num_partitions must be positive";
  }

  void Train(const std::vector<STBox>& boxes) override {
    std::vector<int64_t> ts;
    ts.reserve(boxes.size());
    for (const STBox& b : boxes) {
      ts.push_back(b.time.start() / 2 + b.time.end() / 2);
    }
    std::sort(ts.begin(), ts.end());
    splits_.clear();
    if (ts.empty()) return;
    for (int k = 1; k < num_partitions_; ++k) {
      splits_.push_back(ts[ts.size() * static_cast<size_t>(k) /
                           num_partitions_]);
    }
  }

  int num_partitions() const override { return num_partitions_; }

  void AssignTo(const STBox& box, bool duplicate, uint64_t record_id,
                std::vector<int>* out) const override {
    (void)record_id;
    if (!duplicate) {
      int64_t tc = box.time.start() / 2 + box.time.end() / 2;
      out->push_back(static_cast<int>(
          std::upper_bound(splits_.begin(), splits_.end(), tc) -
          splits_.begin()));
      return;
    }
    for (int s = 0; s < num_partitions_; ++s) {
      bool after_lo = s == 0 || box.time.end() >= splits_[s - 1];
      bool before_hi = s == num_partitions_ - 1 || box.time.start() <= splits_[s];
      if (after_lo && before_hi) out->push_back(s);
    }
  }

 private:
  int num_partitions_;
  std::vector<int64_t> splits_;
};

}  // namespace st4ml

#endif  // ST4ML_PARTITION_TBALANCE_PARTITIONER_H_
