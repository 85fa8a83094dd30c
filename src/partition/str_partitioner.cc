#include "partition/str_partitioner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/logging.h"

namespace st4ml {
namespace partition_internal {

namespace {

double CenterX(const STBox& b) { return (b.mbr.x_min + b.mbr.x_max) / 2.0; }
double CenterY(const STBox& b) { return (b.mbr.y_min + b.mbr.y_max) / 2.0; }

int64_t CenterT(const STBox& b) {
  return b.time.start() / 2 + b.time.end() / 2;
}

/// Rank selection for equal-count cuts: places at every cut position
/// n * k / count (k = 1 .. count - 1) of [begin, end) the element a full sort
/// under the strict total order `less` puts there. Each selection runs on the
/// suffix one past the previous cut, leaving the element already placed at
/// that cut where it is, so every run between consecutive cuts ends up
/// holding exactly the elements a full sort would give it.
template <typename It, typename Less>
void SelectCuts(It begin, It end, int count, Less less) {
  size_t n = static_cast<size_t>(end - begin);
  size_t start = 0;
  for (int k = 1; k < count; ++k) {
    size_t idx = n * static_cast<size_t>(k) / count;
    if (idx >= n) break;
    if (idx < start) continue;  // same position as the previous cut
    std::nth_element(begin + start, begin + idx, end, less);
    start = idx + 1;
  }
}

/// `count - 1` equal-count cuts, `key` of each cut position SelectCuts
/// placed in `selected`.
template <typename V, typename Key>
auto QuantileCuts(const std::vector<V>& selected, int count, Key key) {
  std::vector<decltype(key(selected.front()))> cuts;
  if (selected.empty() || count <= 1) return cuts;
  cuts.reserve(count - 1);
  for (int k = 1; k < count; ++k) {
    cuts.push_back(key(selected[selected.size() * static_cast<size_t>(k) /
                                count]));
  }
  return cuts;
}

bool ByXThenY(const Center& a, const Center& b) {
  return a.x < b.x || (a.x == b.x && a.y < b.y);
}

/// A time-slice key: ties on the time center break by input order.
struct TimeKey {
  int64_t t;
  size_t index;
};

bool ByTimeThenIndex(const TimeKey& a, const TimeKey& b) {
  return a.t < b.t || (a.t == b.t && a.index < b.index);
}

Center CenterOf(const STBox& b) { return Center{CenterX(b), CenterY(b)}; }

}  // namespace

int StrTiling::TileOf(double x, double y) const {
  int slab = static_cast<int>(
      std::upper_bound(x_splits.begin(), x_splits.end(), x) -
      x_splits.begin());
  const std::vector<double>& cuts = y_splits[slab];
  int tile = static_cast<int>(std::upper_bound(cuts.begin(), cuts.end(), y) -
                              cuts.begin());
  return slab * gy + tile;
}

void StrTiling::IntersectingTiles(const Mbr& mbr, int base,
                                  std::vector<int>* out) const {
  // Bounds come from the trained cuts, not gx/gy: a tiling trained on fewer
  // centers than slabs or tiles has fewer cuts, and TileOf never leaves them.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  int slabs = static_cast<int>(x_splits.size()) + 1;
  for (int slab = 0; slab < slabs; ++slab) {
    double x_lo = slab == 0 ? -kInf : x_splits[slab - 1];
    double x_hi = slab == slabs - 1 ? kInf : x_splits[slab];
    if (mbr.x_min > x_hi || mbr.x_max < x_lo) continue;
    const std::vector<double>& cuts = y_splits[slab];
    int tiles = static_cast<int>(cuts.size()) + 1;
    for (int tile = 0; tile < tiles; ++tile) {
      double y_lo = tile == 0 ? -kInf : cuts[tile - 1];
      double y_hi = tile == tiles - 1 ? kInf : cuts[tile];
      if (mbr.y_min > y_hi || mbr.y_max < y_lo) continue;
      out->push_back(base + slab * gy + tile);
    }
  }
}

StrTiling BuildStrTiling(std::vector<Center>* centers, int gx, int gy) {
  StrTiling tiling;
  tiling.gx = gx;
  tiling.gy = gy;

  // Slab membership by rank (not by re-applying the cuts): ties on the cut
  // value do not matter for split QUALITY, only for balance, and ranks keep
  // the per-slab counts exactly even.
  SelectCuts(centers->begin(), centers->end(), gx, ByXThenY);
  tiling.x_splits =
      QuantileCuts(*centers, gx, [](const Center& c) { return c.x; });
  tiling.y_splits.resize(gx);
  std::vector<double> ys;
  for (int slab = 0; slab < gx; ++slab) {
    size_t lo = centers->size() * static_cast<size_t>(slab) / gx;
    size_t hi = centers->size() * static_cast<size_t>(slab + 1) / gx;
    ys.clear();
    for (size_t i = lo; i < hi; ++i) ys.push_back((*centers)[i].y);
    SelectCuts(ys.begin(), ys.end(), gy, std::less<double>());
    tiling.y_splits[slab] = QuantileCuts(ys, gy, [](double y) { return y; });
  }
  return tiling;
}

}  // namespace partition_internal

namespace {

/// Splits ~n tiles into gx x gy with gx = ceil(sqrt(n)).
void GridShape(int n, int* gx, int* gy) {
  *gx = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  if (*gx < 1) *gx = 1;
  *gy = (n + *gx - 1) / *gx;
  if (*gy < 1) *gy = 1;
}

}  // namespace

STRPartitioner::STRPartitioner(int num_partitions) {
  ST4ML_CHECK(num_partitions > 0) << "num_partitions must be positive";
  GridShape(num_partitions, &tiling_.gx, &tiling_.gy);
  tiling_.y_splits.resize(tiling_.gx);
}

void STRPartitioner::Train(const std::vector<STBox>& boxes) {
  std::vector<partition_internal::Center> centers;
  centers.reserve(boxes.size());
  for (const STBox& b : boxes) {
    centers.push_back(partition_internal::CenterOf(b));
  }
  int gx = tiling_.gx;
  int gy = tiling_.gy;
  tiling_ = partition_internal::BuildStrTiling(&centers, gx, gy);
}

std::vector<int> STRPartitioner::Assign(const STBox& box, bool duplicate,
                                        uint64_t record_id) const {
  (void)record_id;
  if (!duplicate) {
    return {tiling_.TileOf(partition_internal::CenterX(box),
                           partition_internal::CenterY(box))};
  }
  std::vector<int> out;
  tiling_.IntersectingTiles(box.mbr, 0, &out);
  return out;
}

TSTRPartitioner::TSTRPartitioner(int temporal_slices, int spatial_tiles)
    : temporal_slices_(temporal_slices) {
  ST4ML_CHECK(temporal_slices > 0 && spatial_tiles > 0)
      << "slice and tile counts must be positive";
  GridShape(spatial_tiles, &gsx_, &gsy_);
  tiles_per_slice_ = gsx_ * gsy_;
  tilings_.resize(temporal_slices_);
  for (auto& tiling : tilings_) {
    tiling.gx = gsx_;
    tiling.gy = gsy_;
    tiling.y_splits.resize(gsx_);
  }
}

void TSTRPartitioner::Train(const std::vector<STBox>& boxes) {
  namespace pi = partition_internal;
  std::vector<pi::TimeKey> keys;
  keys.reserve(boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    keys.push_back(pi::TimeKey{pi::CenterT(boxes[i]), i});
  }
  pi::SelectCuts(keys.begin(), keys.end(), temporal_slices_,
                 pi::ByTimeThenIndex);
  t_splits_ = pi::QuantileCuts(keys, temporal_slices_,
                               [](const pi::TimeKey& k) { return k.t; });

  // Slice membership by time-center rank, then an independent 2-d STR
  // tiling per slice — this is what lets spatial boundaries adapt to where
  // the data actually was during each time slice.
  tilings_.assign(temporal_slices_, pi::StrTiling{});
  std::vector<pi::Center> centers;
  for (int s = 0; s < temporal_slices_; ++s) {
    size_t lo = keys.size() * static_cast<size_t>(s) / temporal_slices_;
    size_t hi = keys.size() * static_cast<size_t>(s + 1) / temporal_slices_;
    centers.clear();
    for (size_t i = lo; i < hi; ++i) {
      centers.push_back(pi::CenterOf(boxes[keys[i].index]));
    }
    tilings_[s] = pi::BuildStrTiling(&centers, gsx_, gsy_);
  }
}

std::vector<int> TSTRPartitioner::Assign(const STBox& box, bool duplicate,
                                         uint64_t record_id) const {
  (void)record_id;
  if (!duplicate) {
    int slice = static_cast<int>(
        std::upper_bound(t_splits_.begin(), t_splits_.end(),
                         partition_internal::CenterT(box)) -
        t_splits_.begin());
    int tile = tilings_[slice].TileOf(partition_internal::CenterX(box),
                                      partition_internal::CenterY(box));
    return {slice * tiles_per_slice_ + tile};
  }
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Slices by the trained cuts, like the primary lookup above (an untrained
  // or empty-trained partitioner has none and one slice).
  int slices = static_cast<int>(t_splits_.size()) + 1;
  std::vector<int> out;
  for (int s = 0; s < slices; ++s) {
    int64_t t_lo = s == 0 ? kMin : t_splits_[s - 1];
    int64_t t_hi = s == slices - 1 ? kMax : t_splits_[s];
    if (box.time.start() > t_hi || box.time.end() < t_lo) continue;
    tilings_[s].IntersectingTiles(box.mbr, s * tiles_per_slice_, &out);
  }
  return out;
}

}  // namespace st4ml
