#ifndef ST4ML_CONVERSION_SINGULAR_TO_COLLECTIVE_H_
#define ST4ML_CONVERSION_SINGULAR_TO_COLLECTIVE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/broadcast.h"
#include "engine/dataset.h"
#include "index/rtree.h"
#include "instances/instances.h"

namespace st4ml {

/// How a converter locates the structure cells/bins an instance belongs to.
///
/// Both strategies assign instances to EXACTLY the same cells — they differ
/// only in how candidates are found. This invariant is what lets the
/// ablation bench assert that the broadcast design and the shuffle design
/// produce identical results, and what keeps ST4ML's answers equal to the
/// baselines' hand-rolled scans.
enum class ConversionStrategy {
  /// Regular structures locate candidates in closed form — an arithmetic
  /// bin or grid-cell window, then the exact predicate on those candidates
  /// only (TemporalStructure::FindBin, SpatialStructure::FindCell and
  /// friends); irregular spatial structures of more than 8 cells use a
  /// broadcast R-tree over cell envelopes (the paper's design).
  kAuto,
  /// Front-to-back scan over every cell/bin per instance — what the
  /// baselines do, kept as the reference implementation.
  kNaive,
};

namespace conversion_internal {

/// The naive reference predicates. These spell out the assignment contract:
///  - an event joins the FIRST bin/cell (in structure order) containing it;
///  - a trajectory joins EVERY bin its time span intersects and EVERY cell
///    its shape intersects.
/// The indexed paths below must agree with these exactly.

inline size_t NaiveFirstBin(const TemporalStructure& s, int64_t t) {
  for (size_t i = 0; i < s.size(); ++i) {
    if (s.bin(i).Contains(t)) return i;
  }
  return TemporalStructure::kNoBin;
}

inline std::vector<size_t> NaiveBins(const TemporalStructure& s,
                                     const Duration& d) {
  std::vector<size_t> out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s.bin(i).Intersects(d)) out.push_back(i);
  }
  return out;
}

inline size_t NaiveFirstCell(const SpatialStructure& s, const Point& p) {
  for (size_t i = 0; i < s.size(); ++i) {
    if (s.cell(i).ContainsPoint(p)) return i;
  }
  return SpatialStructure::kNoCell;
}

inline std::vector<size_t> NaiveContainingCells(const SpatialStructure& s,
                                                const Point& p) {
  std::vector<size_t> out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s.cell(i).ContainsPoint(p)) out.push_back(i);
  }
  return out;
}

inline bool CellHitsLine(const SpatialStructure& s, size_t i,
                         const LineString& line) {
  return s.is_grid() ? line.IntersectsMbr(s.cell_mbr(i))
                     : s.cell(i).IntersectsLineString(line);
}

inline std::vector<size_t> NaiveCellsForLine(const SpatialStructure& s,
                                             const LineString& line) {
  std::vector<size_t> out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (CellHitsLine(s, i, line)) out.push_back(i);
  }
  return out;
}

/// The time axis of a spatial-only cell index: wide enough to intersect any
/// query instant, centered so the R-tree's STR packing stays well-behaved.
inline Duration AllTime() {
  constexpr int64_t kHalf = int64_t{1} << 62;
  return Duration(-kHalf, kHalf);
}

/// A broadcast R-tree over the cells of a spatial structure. Queries return
/// candidate cell indices in ASCENDING order so first-match semantics agree
/// with the naive front-to-back scan.
class CellIndex {
 public:
  CellIndex() = default;

  explicit CellIndex(const SpatialStructure& s) {
    std::vector<size_t> ids(s.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    tree_.Build(ids, [&s](size_t i) { return STBox(s.cell_mbr(i), AllTime()); });
  }

  std::vector<size_t> Candidates(const Mbr& query) const {
    std::vector<size_t> out;
    tree_.QueryVisit(STBox(query, Duration(0)),
                     [&out, this](size_t i) { out.push_back(tree_.item(i)); });
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  RTree<size_t> tree_;
};

inline size_t IndexedFirstCell(const SpatialStructure& s, const CellIndex* index,
                               const Point& p) {
  if (index == nullptr) return s.FindCell(p);
  for (size_t i : index->Candidates(Mbr(p))) {
    if (s.cell(i).ContainsPoint(p)) return i;
  }
  return SpatialStructure::kNoCell;
}

inline std::vector<size_t> IndexedContainingCells(const SpatialStructure& s,
                                                  const CellIndex* index,
                                                  const Point& p) {
  if (index == nullptr) return s.ContainingCells(p);
  std::vector<size_t> out;
  for (size_t i : index->Candidates(Mbr(p))) {
    if (s.cell(i).ContainsPoint(p)) out.push_back(i);
  }
  return out;
}

inline std::vector<size_t> IndexedCellsForLine(const SpatialStructure& s,
                                               const CellIndex* index,
                                               const LineString& line) {
  if (index == nullptr) return s.IntersectingCells(line);
  std::vector<size_t> out;
  for (size_t i : index->Candidates(line.ComputeMbr())) {
    if (CellHitsLine(s, i, line)) out.push_back(i);
  }
  return out;
}

/// Whether kAuto indexes this spatial structure with an R-tree: irregular
/// cells, more than 8 of them.
inline bool WantsCellIndex(const SpatialStructure& s) {
  return !s.is_grid() && s.size() > 8;
}

template <typename T>
constexpr bool kIsEvent = std::is_same_v<T, STEvent>;

template <typename T>
constexpr void AssertSingular() {
  static_assert(kIsEvent<T> || std::is_same_v<T, STTrajectory>,
                "converters accept STEvent or STTrajectory instances");
}

/// The spatial part of a structure a cell index can cover, or null.
inline const SpatialStructure* SpatialPart(const TemporalStructure&) {
  return nullptr;
}
inline const SpatialStructure* SpatialPart(const SpatialStructure& s) {
  return &s;
}
inline const SpatialStructure* SpatialPart(const RasterStructure& r) {
  return &r.spatial();
}

/// The slot functions: call `emit(slot)` for every slot of the structure
/// `item` is assigned to, with the naive scan or the indexed lookup (`index`
/// null means the structure's own closed-form lookup).

/// Time series: an event joins its first containing bin, a trajectory every
/// bin its time span intersects.
template <typename T, typename Emit>
void ForEachSlot(const TemporalStructure& s, const CellIndex*, bool naive,
                 const T& item, Emit emit) {
  if constexpr (kIsEvent<T>) {
    int64_t t = item.temporal.start();
    size_t bin = naive ? NaiveFirstBin(s, t) : s.FindBin(t);
    if (bin != TemporalStructure::kNoBin) emit(bin);
  } else {
    Duration extent = item.TemporalExtent();
    for (size_t bin :
         naive ? NaiveBins(s, extent) : s.IntersectingBins(extent)) {
      emit(bin);
    }
  }
}

/// Spatial map: an event joins its first containing cell, a trajectory every
/// cell its shape intersects.
template <typename T, typename Emit>
void ForEachSlot(const SpatialStructure& s, const CellIndex* index, bool naive,
                 const T& item, Emit emit) {
  if constexpr (kIsEvent<T>) {
    size_t cell = naive ? NaiveFirstCell(s, item.spatial)
                        : IndexedFirstCell(s, index, item.spatial);
    if (cell != SpatialStructure::kNoCell) emit(cell);
  } else {
    LineString shape = item.Shape();
    for (size_t cell : naive ? NaiveCellsForLine(s, shape)
                             : IndexedCellsForLine(s, index, shape)) {
      emit(cell);
    }
  }
}

/// Raster, at flat index (bin * num_cells + cell):
///  - an event joins every containing cell x every containing bin (an air
///    reading on two overlapping road cells counts on both — no dedup, to
///    match per-cell scans);
///  - a trajectory joins the cross product of intersected cells and bins.
template <typename T, typename Emit>
void ForEachSlot(const RasterStructure& r, const CellIndex* index, bool naive,
                 const T& item, Emit emit) {
  const SpatialStructure& s = r.spatial();
  const TemporalStructure& ts = r.temporal();
  std::vector<size_t> cells;
  std::vector<size_t> bins;
  if constexpr (kIsEvent<T>) {
    cells = naive ? NaiveContainingCells(s, item.spatial)
                  : IndexedContainingCells(s, index, item.spatial);
    bins = naive ? NaiveBins(ts, Duration(item.temporal.start()))
                 : ts.IntersectingBins(Duration(item.temporal.start()));
  } else {
    LineString shape = item.Shape();
    cells = naive ? NaiveCellsForLine(s, shape)
                  : IndexedCellsForLine(s, index, shape);
    Duration extent = item.TemporalExtent();
    bins = naive ? NaiveBins(ts, extent) : ts.IntersectingBins(extent);
  }
  for (size_t bin : bins) {
    for (size_t cell : cells) emit(r.FlatIndex(cell, bin));
  }
}

/// One partition's slot assignment as a stable counting sort. `kept` holds
/// the partition positions of the items that joined at least one slot;
/// slot i's items are `order[offsets[i]]` .. `order[offsets[i + 1] - 1]`,
/// indices into `kept` in input order — the order a per-slot push_back
/// would have produced, so per-slot folds sum exactly as before.
struct SlotIndex {
  std::vector<uint32_t> kept;
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> order;
};

/// Runs the slot function once per item, recording (slot, item) pairs, then
/// counts per slot, prefix-sums and scatters the pairs into `order`.
template <typename S, typename T>
SlotIndex SortIntoSlots(const S& s, const CellIndex* index, bool naive,
                        const std::vector<T>& part) {
  SlotIndex out;
  out.offsets.assign(s.size() + 1, 0);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;  // (slot, kept index)
  for (size_t i = 0; i < part.size(); ++i) {
    const size_t before = pairs.size();
    const auto k = static_cast<uint32_t>(out.kept.size());
    ForEachSlot(s, index, naive, part[i], [&](size_t slot) {
      pairs.emplace_back(static_cast<uint32_t>(slot), k);
      ++out.offsets[slot + 1];
    });
    if (pairs.size() > before) out.kept.push_back(static_cast<uint32_t>(i));
  }
  ST4ML_CHECK(part.size() <= UINT32_MAX && pairs.size() <= UINT32_MAX)
      << "a partition holds or assigns more than 2^32 items";
  for (size_t i = 1; i < out.offsets.size(); ++i) {
    out.offsets[i] += out.offsets[i - 1];
  }
  std::vector<uint32_t> next(out.offsets.begin(), out.offsets.end() - 1);
  out.order.resize(pairs.size());
  for (const auto& [slot, k] : pairs) out.order[next[slot]++] = k;
  return out;
}

}  // namespace conversion_internal

/// Converts singular instances (events or trajectories) into one
/// Collective<S, ...> per engine partition, with the structure — and, for
/// irregular spatial structures of more than 8 cells, an R-tree over its
/// cell envelopes — shipped to workers as broadcast variables: design
/// option 2 of DESIGN.md §3.2.2; no shuffle.
///
/// Each partition is assigned to slots by one stable counting sort
/// (conversion_internal::SortIntoSlots). `Convert(data)` copies no
/// instance: each partition's store references the input partition in
/// place (Dataset::SharedPartition) through the positions of its assigned
/// instances, and each slot is a Bucket<T> view into that store;
/// `Convert(data, pre, agg)` applies `pre` once per
/// assigned instance and `agg` per slot to a std::vector<P> gathered in
/// input order (handed over as an rvalue), so heavy payloads never outlive
/// the partition. A zero-partition input (a selection that pruned
/// everything) converts as one empty partition, so every output has a
/// collective to merge.
template <typename T, typename S>
class Converter {
 public:
  explicit Converter(std::shared_ptr<const S> structure,
                     ConversionStrategy strategy = ConversionStrategy::kAuto)
      : structure_(std::move(structure)), strategy_(strategy) {
    conversion_internal::AssertSingular<T>();
    ST4ML_CHECK(structure_ != nullptr) << "null structure";
  }

  Dataset<Collective<S, Bucket<T>>> Convert(const Dataset<T>& data) const {
    return ConvertSorted(data, [](const std::shared_ptr<const S>& s,
                                  SharedPart part,
                                  conversion_internal::SlotIndex slots) {
      for (uint32_t& k : slots.order) k = slots.kept[k];  // partition positions
      auto store = std::make_shared<const BucketStore<T>>(
          BucketStore<T>{std::move(part), std::move(slots.order)});
      const std::vector<uint32_t>& offsets = slots.offsets;
      std::vector<Bucket<T>> values(s->size());
      for (size_t i = 0; i < values.size(); ++i) {
        if (offsets[i] != offsets[i + 1]) {  // empty slots reference nothing
          values[i] = Bucket<T>(store, offsets[i], offsets[i + 1]);
        }
      }
      return Collective<S, Bucket<T>>(s, std::move(values));
    });
  }

  template <typename PreFn, typename AggFn>
  auto Convert(const Dataset<T>& data, PreFn pre, AggFn agg) const {
    using P = std::decay_t<std::invoke_result_t<PreFn, const T&>>;
    using R = std::decay_t<std::invoke_result_t<AggFn, std::vector<P>>>;
    return ConvertSorted(data, [pre, agg](const std::shared_ptr<const S>& s,
                                          SharedPart part,
                                          conversion_internal::SlotIndex slots) {
      std::vector<P> mapped;
      mapped.reserve(slots.kept.size());
      for (uint32_t i : slots.kept) mapped.push_back(pre((*part)[i]));
      const std::vector<uint32_t>& offsets = slots.offsets;
      std::vector<R> values;
      values.reserve(s->size());
      for (size_t i = 0; i < s->size(); ++i) {
        std::vector<P> bucket;
        bucket.reserve(offsets[i + 1] - offsets[i]);
        for (uint32_t k = offsets[i]; k < offsets[i + 1]; ++k) {
          bucket.push_back(mapped[slots.order[k]]);
        }
        values.push_back(agg(std::move(bucket)));
      }
      return Collective<S, R>(s, std::move(values));
    });
  }

 private:
  /// One input partition, referenced in place (Dataset::SharedPartition).
  using SharedPart = std::shared_ptr<const std::vector<T>>;

  /// Broadcasts the structure (and cell index), sorts every partition into
  /// slots and turns each into one collective with
  /// `build(structure, partition, slots)`, the partition shared in place.
  template <typename BuildFn>
  auto ConvertSorted(const Dataset<T>& data, BuildFn build) const {
    namespace ci = conversion_internal;
    auto shared = MakeBroadcast(data.context(), structure_);
    const bool naive = strategy_ == ConversionStrategy::kNaive;
    Broadcast<ci::CellIndex> index;
    const SpatialStructure* spatial = ci::SpatialPart(*structure_);
    if (!naive && spatial != nullptr && ci::WantsCellIndex(*spatial)) {
      index = MakeBroadcast(data.context(), ci::CellIndex(*spatial));
    }
    const Dataset<T> input =
        data.num_partitions() > 0
            ? data
            : Dataset<T>::FromPartitions(data.context(),
                                         typename Dataset<T>::Partitions(1));
    return input.MapPartitions(
        [input, shared, index, naive, build](const std::vector<T>& part) {
          const std::shared_ptr<const S>& s = shared.value();
          // `part` is one of input's own partitions.
          const auto p = static_cast<size_t>(&part - &input.partition(0));
          auto collective =
              build(s, input.SharedPartition(p),
                    ci::SortIntoSlots(*s, index.get(), naive, part));
          std::vector<decltype(collective)> out;
          out.push_back(std::move(collective));
          return out;
        });
  }

  std::shared_ptr<const S> structure_;
  ConversionStrategy strategy_;
};

template <typename T>
using TimeSeriesConverter = Converter<T, TemporalStructure>;
template <typename T>
using SpatialMapConverter = Converter<T, SpatialStructure>;
template <typename T>
using RasterConverter = Converter<T, RasterStructure>;

/// The converter names the paper's Table 3 uses: the source instance type is
/// the template argument, the target collective type is in the name.
template <typename T>
using Event2TsConverter = TimeSeriesConverter<T>;
template <typename T>
using Traj2TsConverter = TimeSeriesConverter<T>;
template <typename T>
using Event2SmConverter = SpatialMapConverter<T>;
template <typename T>
using Traj2SmConverter = SpatialMapConverter<T>;
template <typename T>
using Event2RasterConverter = RasterConverter<T>;
template <typename T>
using Traj2RasterConverter = RasterConverter<T>;

}  // namespace st4ml

#endif  // ST4ML_CONVERSION_SINGULAR_TO_COLLECTIVE_H_
