#include "partition/baseline_partitioners.h"

#include <algorithm>
#include <cstddef>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace st4ml {

KDBPartitioner::KDBPartitioner(int num_partitions)
    : num_partitions_(num_partitions) {
  ST4ML_CHECK(num_partitions > 0) << "num_partitions must be positive";
}

int KDBPartitioner::BuildNode(std::vector<std::pair<double, double>>* centers,
                              size_t lo, size_t hi, int target, bool x_axis) {
  int index = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  if (target <= 1 || hi - lo <= 1) {
    nodes_[index].leaf_id = next_leaf_++;
    return index;
  }
  int left_target = target / 2;
  int right_target = target - left_target;
  size_t mid = lo + (hi - lo) * static_cast<size_t>(left_target) /
                   static_cast<size_t>(target);
  if (mid == lo) mid = lo + 1;
  auto by_axis = [x_axis](const std::pair<double, double>& a,
                          const std::pair<double, double>& b) {
    return x_axis ? a.first < b.first : a.second < b.second;
  };
  std::nth_element(centers->begin() + lo, centers->begin() + mid,
                   centers->begin() + hi, by_axis);
  nodes_[index].x_axis = x_axis;
  nodes_[index].split =
      x_axis ? (*centers)[mid].first : (*centers)[mid].second;
  int left = BuildNode(centers, lo, mid, left_target, !x_axis);
  int right = BuildNode(centers, mid, hi, right_target, !x_axis);
  nodes_[index].left = left;
  nodes_[index].right = right;
  return index;
}

void KDBPartitioner::Train(const std::vector<STBox>& boxes) {
  std::vector<std::pair<double, double>> centers;
  centers.reserve(boxes.size());
  for (const STBox& b : boxes) {
    centers.emplace_back((b.mbr.x_min + b.mbr.x_max) / 2.0,
                         (b.mbr.y_min + b.mbr.y_max) / 2.0);
  }
  nodes_.clear();
  next_leaf_ = 0;
  root_ = BuildNode(&centers, 0, centers.size(), num_partitions_, true);
}

void KDBPartitioner::CollectIntersecting(int node, const Mbr& query,
                                         std::vector<int>* out) const {
  const Node& n = nodes_[node];
  if (n.leaf_id >= 0) {
    out->push_back(n.leaf_id);
    return;
  }
  double lo = n.x_axis ? query.x_min : query.y_min;
  double hi = n.x_axis ? query.x_max : query.y_max;
  if (lo <= n.split) CollectIntersecting(n.left, query, out);
  if (hi >= n.split) CollectIntersecting(n.right, query, out);
}

void KDBPartitioner::AssignTo(const STBox& box, bool duplicate,
                              uint64_t record_id,
                              std::vector<int>* out) const {
  (void)record_id;
  if (root_ < 0) {
    out->push_back(0);
    return;
  }
  if (!duplicate) {
    double cx = (box.mbr.x_min + box.mbr.x_max) / 2.0;
    double cy = (box.mbr.y_min + box.mbr.y_max) / 2.0;
    int node = root_;
    while (nodes_[node].leaf_id < 0) {
      const Node& n = nodes_[node];
      double v = n.x_axis ? cx : cy;
      node = v >= n.split ? n.right : n.left;
    }
    out->push_back(nodes_[node].leaf_id);
    return;
  }
  const size_t first = out->size();
  CollectIntersecting(root_, box.mbr, out);
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first), out->end());
}

GridPartitioner::GridPartitioner(int num_partitions) {
  ST4ML_CHECK(num_partitions > 0) << "num_partitions must be positive";
  g_ = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(num_partitions))));
  if (g_ < 1) g_ = 1;
}

void GridPartitioner::Train(const std::vector<STBox>& boxes) {
  extent_ = Mbr();
  for (const STBox& b : boxes) {
    extent_.Extend(Point((b.mbr.x_min + b.mbr.x_max) / 2.0,
                         (b.mbr.y_min + b.mbr.y_max) / 2.0));
  }
  if (extent_.IsEmpty()) extent_ = Mbr(0.0, 0.0, 1.0, 1.0);
}

int GridPartitioner::CellOf(double x, double y) const {
  double dx = extent_.Width() / g_;
  double dy = extent_.Height() / g_;
  int ix = dx > 0.0
               ? std::clamp(static_cast<int>((x - extent_.x_min) / dx), 0,
                            g_ - 1)
               : 0;
  int iy = dy > 0.0
               ? std::clamp(static_cast<int>((y - extent_.y_min) / dy), 0,
                            g_ - 1)
               : 0;
  return iy * g_ + ix;
}

void GridPartitioner::AssignTo(const STBox& box, bool duplicate,
                               uint64_t record_id,
                               std::vector<int>* out) const {
  (void)record_id;
  double cx = (box.mbr.x_min + box.mbr.x_max) / 2.0;
  double cy = (box.mbr.y_min + box.mbr.y_max) / 2.0;
  if (!duplicate) {
    out->push_back(CellOf(cx, cy));
    return;
  }
  int lo = CellOf(box.mbr.x_min, box.mbr.y_min);
  int hi = CellOf(box.mbr.x_max, box.mbr.y_max);
  int ix_lo = lo % g_, iy_lo = lo / g_;
  int ix_hi = hi % g_, iy_hi = hi / g_;
  for (int iy = iy_lo; iy <= iy_hi; ++iy) {
    for (int ix = ix_lo; ix <= ix_hi; ++ix) {
      out->push_back(iy * g_ + ix);
    }
  }
}

}  // namespace st4ml
