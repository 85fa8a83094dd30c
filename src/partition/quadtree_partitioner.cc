#include "partition/quadtree_partitioner.h"

#include <algorithm>
#include <cstddef>
#include <queue>
#include <utility>

#include "common/logging.h"

namespace st4ml {

QuadTreePartitioner::QuadTreePartitioner(int target_partitions)
    : target_partitions_(target_partitions) {
  ST4ML_CHECK(target_partitions > 0) << "target_partitions must be positive";
  nodes_.push_back(Node{});
  leaf_of_node_.push_back(0);
}

void QuadTreePartitioner::Train(const std::vector<STBox>& boxes) {
  extent_ = Mbr();
  std::vector<std::pair<double, double>> centers;
  centers.reserve(boxes.size());
  for (const STBox& b : boxes) {
    double cx = (b.mbr.x_min + b.mbr.x_max) / 2.0;
    double cy = (b.mbr.y_min + b.mbr.y_max) / 2.0;
    centers.emplace_back(cx, cy);
    extent_.Extend(Point(cx, cy));
  }
  if (extent_.IsEmpty()) extent_ = Mbr(0.0, 0.0, 1.0, 1.0);

  nodes_.clear();
  Node root;
  root.bounds = extent_;
  nodes_.push_back(root);
  std::vector<std::vector<size_t>> members(1);
  members[0].resize(centers.size());
  for (size_t i = 0; i < centers.size(); ++i) members[0][i] = i;

  // Greedily quarter the heaviest leaf until we reach the target. A leaf
  // with < 4 points cannot usefully split, which bounds the loop.
  auto heavier = [&members](int a, int b) {
    return members[a].size() < members[b].size();
  };
  std::priority_queue<int, std::vector<int>, decltype(heavier)> heap(heavier);
  heap.push(0);
  int leaves = 1;
  while (leaves + 3 <= std::max(target_partitions_, 1) && !heap.empty()) {
    int node = heap.top();
    heap.pop();
    if (members[node].size() < 4) break;
    Node parent = nodes_[node];
    double mx = (parent.bounds.x_min + parent.bounds.x_max) / 2.0;
    double my = (parent.bounds.y_min + parent.bounds.y_max) / 2.0;
    nodes_[node].mx = mx;
    nodes_[node].my = my;
    nodes_[node].first_child = static_cast<int>(nodes_.size());
    for (int q = 0; q < 4; ++q) {
      Node child;
      bool right = (q & 1) != 0;
      bool top = (q & 2) != 0;
      child.bounds = Mbr(right ? mx : parent.bounds.x_min,
                         top ? my : parent.bounds.y_min,
                         right ? parent.bounds.x_max : mx,
                         top ? parent.bounds.y_max : my);
      nodes_.push_back(child);
      members.emplace_back();
    }
    for (size_t i : members[node]) {
      int q = (centers[i].first >= mx ? 1 : 0) |
              (centers[i].second >= my ? 2 : 0);
      members[nodes_[node].first_child + q].push_back(i);
    }
    members[node].clear();
    members[node].shrink_to_fit();
    for (int q = 0; q < 4; ++q) heap.push(nodes_[node].first_child + q);
    leaves += 3;
  }

  // Dense leaf ids in node order, so assignments are deterministic.
  leaf_of_node_.assign(nodes_.size(), -1);
  int next = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].first_child < 0) leaf_of_node_[i] = next++;
  }
  num_leaves_ = static_cast<size_t>(next);
}

int QuadTreePartitioner::LeafAt(double x, double y) const {
  // Clamp so out-of-extent records still land in the nearest border leaf.
  x = std::clamp(x, extent_.x_min, extent_.x_max);
  y = std::clamp(y, extent_.y_min, extent_.y_max);
  int node = 0;
  while (nodes_[node].first_child >= 0) {
    int q = (x >= nodes_[node].mx ? 1 : 0) | (y >= nodes_[node].my ? 2 : 0);
    node = nodes_[node].first_child + q;
  }
  return leaf_of_node_[node];
}

void QuadTreePartitioner::CollectIntersecting(int node, const Mbr& query,
                                              std::vector<int>* out) const {
  if (!nodes_[node].bounds.Intersects(query)) return;
  if (nodes_[node].first_child < 0) {
    out->push_back(leaf_of_node_[node]);
    return;
  }
  for (int q = 0; q < 4; ++q) {
    CollectIntersecting(nodes_[node].first_child + q, query, out);
  }
}

void QuadTreePartitioner::AssignTo(const STBox& box, bool duplicate,
                                   uint64_t record_id,
                                   std::vector<int>* out) const {
  (void)record_id;
  double cx = (box.mbr.x_min + box.mbr.x_max) / 2.0;
  double cy = (box.mbr.y_min + box.mbr.y_max) / 2.0;
  if (!duplicate) {
    out->push_back(LeafAt(cx, cy));
    return;
  }
  // Clamp the envelope into the extent so border records match border
  // leaves; fall back to the primary if the clamp degenerates.
  Mbr clamped(std::clamp(box.mbr.x_min, extent_.x_min, extent_.x_max),
              std::clamp(box.mbr.y_min, extent_.y_min, extent_.y_max),
              std::clamp(box.mbr.x_max, extent_.x_min, extent_.x_max),
              std::clamp(box.mbr.y_max, extent_.y_min, extent_.y_max));
  const size_t first = out->size();
  CollectIntersecting(0, clamped, out);
  if (out->size() == first) out->push_back(LeafAt(cx, cy));
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first), out->end());
}

}  // namespace st4ml
