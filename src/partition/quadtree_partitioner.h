#ifndef ST4ML_PARTITION_QUADTREE_PARTITIONER_H_
#define ST4ML_PARTITION_QUADTREE_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "geometry/mbr.h"
#include "partition/partitioner.h"

namespace st4ml {

/// Spatial quadtree baseline: starting from the sample extent, repeatedly
/// quarter the most populated leaf until at least `target_partitions` leaves
/// exist. Adapts to density like STR, but with axis-midpoint splits, so
/// skewed data yields deep trees and uneven leaves — which is the point of
/// benchmarking it.
class QuadTreePartitioner : public STPartitioner {
 public:
  explicit QuadTreePartitioner(int target_partitions);

  void Train(const std::vector<STBox>& boxes) override;
  int num_partitions() const override {
    return static_cast<int>(leaf_of_node_.empty() ? 1 : num_leaves_);
  }
  void AssignTo(const STBox& box, bool duplicate, uint64_t record_id,
                std::vector<int>* out) const override;

 private:
  struct Node {
    Mbr bounds;
    double mx = 0.0;  // split center (valid when internal)
    double my = 0.0;
    int first_child = -1;  // four consecutive children; -1 for a leaf
  };

  int LeafAt(double x, double y) const;
  void CollectIntersecting(int node, const Mbr& query,
                           std::vector<int>* out) const;

  int target_partitions_;
  std::vector<Node> nodes_;
  std::vector<int> leaf_of_node_;  // node index -> dense leaf id (-1 internal)
  size_t num_leaves_ = 1;
  Mbr extent_;
};

}  // namespace st4ml

#endif  // ST4ML_PARTITION_QUADTREE_PARTITIONER_H_
