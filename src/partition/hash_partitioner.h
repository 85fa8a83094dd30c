#ifndef ST4ML_PARTITION_HASH_PARTITIONER_H_
#define ST4ML_PARTITION_HASH_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "partition/partitioner.h"

namespace st4ml {

/// Spark's default: records land by id hash, ignoring space and time
/// entirely. Perfectly balanced, zero locality — the baseline every ST-aware
/// partitioner is measured against.
class HashPartitioner : public STPartitioner {
 public:
  explicit HashPartitioner(int num_partitions)
      : num_partitions_(num_partitions) {
    ST4ML_CHECK(num_partitions > 0) << "num_partitions must be positive";
  }

  void Train(const std::vector<STBox>& boxes) override { (void)boxes; }

  int num_partitions() const override { return num_partitions_; }

  void AssignTo(const STBox& box, bool duplicate, uint64_t record_id,
                std::vector<int>* out) const override {
    (void)box;
    (void)duplicate;  // hashing has no notion of a neighboring partition
    uint64_t h = Mix(record_id);
    out->push_back(
        static_cast<int>(h % static_cast<uint64_t>(num_partitions_)));
  }

 private:
  // splitmix64 finalizer: sequential ids must not land sequentially.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  int num_partitions_;
};

}  // namespace st4ml

#endif  // ST4ML_PARTITION_HASH_PARTITIONER_H_
