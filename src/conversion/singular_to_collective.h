#ifndef ST4ML_CONVERSION_SINGULAR_TO_COLLECTIVE_H_
#define ST4ML_CONVERSION_SINGULAR_TO_COLLECTIVE_H_

#include <algorithm>
#include <limits>
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
/// Every strategy assigns instances to EXACTLY the same cells — they differ
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
  /// Force the broadcast R-tree even for regular grids.
  kRTree,
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

/// Whether the strategy wants an R-tree for this spatial structure.
inline bool WantsCellIndex(ConversionStrategy strategy,
                           const SpatialStructure& s) {
  if (strategy == ConversionStrategy::kRTree) return true;
  return strategy == ConversionStrategy::kAuto && !s.is_grid() && s.size() > 8;
}

struct IdentityPre {
  template <typename T>
  T operator()(const T& value) const {
    return value;
  }
};

struct PassThroughAgg {
  template <typename P>
  std::vector<P> operator()(const std::vector<P>& values) const {
    return values;
  }
};

template <typename T>
constexpr bool kIsEvent = std::is_same_v<T, STEvent>;
template <typename T>
constexpr bool kIsTraj = std::is_same_v<T, STTrajectory>;

template <typename T>
constexpr void AssertSingular() {
  static_assert(kIsEvent<T> || kIsTraj<T>,
                "converters accept STEvent or STTrajectory instances");
}

}  // namespace conversion_internal

/// Converts singular instances (events or trajectories) into one TimeSeries
/// per engine partition, with the structure shipped to workers as a
/// broadcast variable — design option 2 of DESIGN.md §3.2.2; no shuffle.
///
/// `Convert(data)` buckets whole instances (value type vector<T>);
/// `Convert(data, pre, agg)` applies `pre` per instance before bucketing and
/// `agg` per bin afterwards, so heavy payloads never outlive the partition.
template <typename T>
class TimeSeriesConverter {
 public:
  explicit TimeSeriesConverter(
      std::shared_ptr<const TemporalStructure> structure,
      ConversionStrategy strategy = ConversionStrategy::kAuto)
      : structure_(std::move(structure)), strategy_(strategy) {
    conversion_internal::AssertSingular<T>();
    ST4ML_CHECK(structure_ != nullptr) << "null temporal structure";
  }

  Dataset<TimeSeries<std::vector<T>>> Convert(const Dataset<T>& data) const {
    return Convert(data, conversion_internal::IdentityPre{},
                   conversion_internal::PassThroughAgg{});
  }

  template <typename PreFn, typename AggFn>
  auto Convert(const Dataset<T>& data, PreFn pre, AggFn agg) const {
    namespace ci = conversion_internal;
    using P = std::decay_t<std::invoke_result_t<PreFn, const T&>>;
    using R = std::decay_t<std::invoke_result_t<AggFn, const std::vector<P>&>>;
    auto shared = MakeBroadcast(data.context(), structure_);
    const bool naive = strategy_ == ConversionStrategy::kNaive;
    return data.MapPartitions(
        [shared, naive, pre, agg](const std::vector<T>& part) {
          const TemporalStructure& s = *shared.value();
          std::vector<std::vector<P>> buckets(s.size());
          for (const T& item : part) {
            if constexpr (ci::kIsEvent<T>) {
              int64_t t = item.temporal.start();
              size_t bin = naive ? ci::NaiveFirstBin(s, t) : s.FindBin(t);
              if (bin != TemporalStructure::kNoBin) {
                buckets[bin].push_back(pre(item));
              }
            } else {
              Duration extent = item.TemporalExtent();
              auto bins = naive ? ci::NaiveBins(s, extent)
                                : s.IntersectingBins(extent);
              for (size_t bin : bins) buckets[bin].push_back(pre(item));
            }
          }
          std::vector<R> values;
          values.reserve(buckets.size());
          for (const auto& bucket : buckets) values.push_back(agg(bucket));
          std::vector<TimeSeries<R>> out;
          out.push_back(TimeSeries<R>(shared.value(), std::move(values)));
          return out;
        });
  }

 private:
  std::shared_ptr<const TemporalStructure> structure_;
  ConversionStrategy strategy_;
};

/// Converts singular instances into one SpatialMap per engine partition.
/// Irregular structures (postal areas, road cells) are matched through a
/// broadcast R-tree over cell envelopes; grids compute each instance's
/// candidate cell window in closed form.
template <typename T>
class SpatialMapConverter {
 public:
  explicit SpatialMapConverter(
      std::shared_ptr<const SpatialStructure> structure,
      ConversionStrategy strategy = ConversionStrategy::kAuto)
      : structure_(std::move(structure)), strategy_(strategy) {
    conversion_internal::AssertSingular<T>();
    ST4ML_CHECK(structure_ != nullptr) << "null spatial structure";
  }

  Dataset<SpatialMap<std::vector<T>>> Convert(const Dataset<T>& data) const {
    return Convert(data, conversion_internal::IdentityPre{},
                   conversion_internal::PassThroughAgg{});
  }

  template <typename PreFn, typename AggFn>
  auto Convert(const Dataset<T>& data, PreFn pre, AggFn agg) const {
    namespace ci = conversion_internal;
    using P = std::decay_t<std::invoke_result_t<PreFn, const T&>>;
    using R = std::decay_t<std::invoke_result_t<AggFn, const std::vector<P>&>>;
    auto shared = MakeBroadcast(data.context(), structure_);
    const bool naive = strategy_ == ConversionStrategy::kNaive;
    Broadcast<ci::CellIndex> index;
    if (!naive && ci::WantsCellIndex(strategy_, *structure_)) {
      index = MakeBroadcast(data.context(), ci::CellIndex(*structure_));
    }
    return data.MapPartitions(
        [shared, index, naive, pre, agg](const std::vector<T>& part) {
          const SpatialStructure& s = *shared.value();
          const ci::CellIndex* tree = index ? index.get() : nullptr;
          std::vector<std::vector<P>> buckets(s.size());
          for (const T& item : part) {
            if constexpr (ci::kIsEvent<T>) {
              size_t cell = naive ? ci::NaiveFirstCell(s, item.spatial)
                                  : ci::IndexedFirstCell(s, tree, item.spatial);
              if (cell != SpatialStructure::kNoCell) {
                buckets[cell].push_back(pre(item));
              }
            } else {
              LineString shape = item.Shape();
              auto cells = naive ? ci::NaiveCellsForLine(s, shape)
                                 : ci::IndexedCellsForLine(s, tree, shape);
              for (size_t cell : cells) buckets[cell].push_back(pre(item));
            }
          }
          std::vector<R> values;
          values.reserve(buckets.size());
          for (const auto& bucket : buckets) values.push_back(agg(bucket));
          std::vector<SpatialMap<R>> out;
          out.push_back(SpatialMap<R>(shared.value(), std::move(values)));
          return out;
        });
  }

 private:
  std::shared_ptr<const SpatialStructure> structure_;
  ConversionStrategy strategy_;
};

/// Converts singular instances into one Raster per engine partition. The
/// raster value at flat index (bin * num_cells + cell) collects instances
/// assigned to that spatial cell during that temporal bin:
///  - events join every containing cell x every containing bin (an air
///    reading on two overlapping road cells counts on both — no dedup, to
///    match per-cell scans);
///  - trajectories join the cross product of intersected cells and bins.
template <typename T>
class RasterConverter {
 public:
  explicit RasterConverter(std::shared_ptr<const RasterStructure> structure,
                           ConversionStrategy strategy = ConversionStrategy::kAuto)
      : structure_(std::move(structure)), strategy_(strategy) {
    conversion_internal::AssertSingular<T>();
    ST4ML_CHECK(structure_ != nullptr) << "null raster structure";
  }

  Dataset<Raster<std::vector<T>>> Convert(const Dataset<T>& data) const {
    return Convert(data, conversion_internal::IdentityPre{},
                   conversion_internal::PassThroughAgg{});
  }

  template <typename PreFn, typename AggFn>
  auto Convert(const Dataset<T>& data, PreFn pre, AggFn agg) const {
    namespace ci = conversion_internal;
    using P = std::decay_t<std::invoke_result_t<PreFn, const T&>>;
    using R = std::decay_t<std::invoke_result_t<AggFn, const std::vector<P>&>>;
    auto shared = MakeBroadcast(data.context(), structure_);
    const bool naive = strategy_ == ConversionStrategy::kNaive;
    Broadcast<ci::CellIndex> index;
    if (!naive && ci::WantsCellIndex(strategy_, structure_->spatial())) {
      index = MakeBroadcast(data.context(), ci::CellIndex(structure_->spatial()));
    }
    return data.MapPartitions(
        [shared, index, naive, pre, agg](const std::vector<T>& part) {
          const RasterStructure& r = *shared.value();
          const SpatialStructure& s = r.spatial();
          const TemporalStructure& ts = r.temporal();
          const ci::CellIndex* tree = index ? index.get() : nullptr;
          std::vector<std::vector<P>> buckets(r.size());
          for (const T& item : part) {
            std::vector<size_t> cells;
            std::vector<size_t> bins;
            if constexpr (ci::kIsEvent<T>) {
              cells = naive ? ci::NaiveContainingCells(s, item.spatial)
                            : ci::IndexedContainingCells(s, tree, item.spatial);
              bins = naive ? ci::NaiveBins(ts, Duration(item.temporal.start()))
                           : ts.IntersectingBins(Duration(item.temporal.start()));
            } else {
              LineString shape = item.Shape();
              cells = naive ? ci::NaiveCellsForLine(s, shape)
                            : ci::IndexedCellsForLine(s, tree, shape);
              Duration extent = item.TemporalExtent();
              bins = naive ? ci::NaiveBins(ts, extent)
                           : ts.IntersectingBins(extent);
            }
            for (size_t bin : bins) {
              for (size_t cell : cells) {
                buckets[r.FlatIndex(cell, bin)].push_back(pre(item));
              }
            }
          }
          std::vector<R> values;
          values.reserve(buckets.size());
          for (const auto& bucket : buckets) values.push_back(agg(bucket));
          std::vector<Raster<R>> out;
          out.push_back(Raster<R>(shared.value(), std::move(values)));
          return out;
        });
  }

 private:
  std::shared_ptr<const RasterStructure> structure_;
  ConversionStrategy strategy_;
};

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

/// Factory spellings used when the strategy is chosen at runtime.
template <typename T>
TimeSeriesConverter<T> ToTimeSeriesConverter(
    std::shared_ptr<const TemporalStructure> structure,
    ConversionStrategy strategy = ConversionStrategy::kAuto) {
  return TimeSeriesConverter<T>(std::move(structure), strategy);
}

template <typename T>
SpatialMapConverter<T> ToSpatialMapConverter(
    std::shared_ptr<const SpatialStructure> structure,
    ConversionStrategy strategy = ConversionStrategy::kAuto) {
  return SpatialMapConverter<T>(std::move(structure), strategy);
}

template <typename T>
RasterConverter<T> ToRasterConverter(
    std::shared_ptr<const RasterStructure> structure,
    ConversionStrategy strategy = ConversionStrategy::kAuto) {
  return RasterConverter<T>(std::move(structure), strategy);
}

}  // namespace st4ml

#endif  // ST4ML_CONVERSION_SINGULAR_TO_COLLECTIVE_H_
