#ifndef ST4ML_PARTITION_BASELINE_PARTITIONERS_H_
#define ST4ML_PARTITION_BASELINE_PARTITIONERS_H_

#include <cstdint>
#include <vector>

#include "geometry/mbr.h"
#include "partition/partitioner.h"

namespace st4ml {

/// KDB-tree baseline: recursive equal-count median splits over envelope
/// centers, alternating x and y. Spatially adaptive but, like all the
/// spatial-only baselines, blind to time.
class KDBPartitioner : public STPartitioner {
 public:
  explicit KDBPartitioner(int num_partitions);

  void Train(const std::vector<STBox>& boxes) override;
  int num_partitions() const override { return num_partitions_; }
  void AssignTo(const STBox& box, bool duplicate, uint64_t record_id,
                std::vector<int>* out) const override;

 private:
  struct Node {
    double split = 0.0;
    bool x_axis = true;
    int left = -1;   // node index; -1 when this node is a leaf
    int right = -1;
    int leaf_id = -1;
  };

  // Builds the subtree over centers[lo, hi) targeting `target` leaves;
  // returns the node index.
  int BuildNode(std::vector<std::pair<double, double>>* centers, size_t lo,
                size_t hi, int target, bool x_axis);
  void CollectIntersecting(int node, const Mbr& query,
                           std::vector<int>* out) const;

  int num_partitions_;
  std::vector<Node> nodes_;
  int root_ = -1;
  int next_leaf_ = 0;
};

/// Uniform-grid baseline: a fixed g x g grid over the sample extent. The
/// simplest spatial scheme and the most skew-sensitive one.
class GridPartitioner : public STPartitioner {
 public:
  explicit GridPartitioner(int num_partitions);

  void Train(const std::vector<STBox>& boxes) override;
  int num_partitions() const override { return g_ * g_; }
  void AssignTo(const STBox& box, bool duplicate, uint64_t record_id,
                std::vector<int>* out) const override;

 private:
  int CellOf(double x, double y) const;

  int g_;
  Mbr extent_;
};

}  // namespace st4ml

#endif  // ST4ML_PARTITION_BASELINE_PARTITIONERS_H_
