#ifndef ST4ML_EXTRACTION_COLLECTIVE_EXTRACTORS_H_
#define ST4ML_EXTRACTION_COLLECTIVE_EXTRACTORS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "engine/dataset.h"
#include "extraction/extractor.h"
#include "extraction/rdd_api.h"
#include "instances/instances.h"

namespace st4ml {

/// Canned extractors over converted collectives. Each one is MapValue(s)
/// followed by CollectAndMerge — per-partition work stays cheap (counts,
/// sums) and only the small collective values cross partitions.

namespace extraction_internal {

/// Instance count per slot.
template <typename S, typename T>
Collective<S, int64_t> CountPerSlot(
    const Dataset<Collective<S, Bucket<T>>>& converted) {
  auto counts = MapValue(converted, [](const Bucket<T>& bucket) {
    return static_cast<int64_t>(bucket.size());
  });
  return CollectAndMerge(counts, static_cast<int64_t>(0),
                         [](int64_t a, int64_t b) { return a + b; });
}

/// Merged mean-speed accumulator per slot, speeds scaled to `unit`. Each
/// assigned trajectory's speed is computed once, however many slots it
/// joined, then folded per slot in bucket order through the bucket indices;
/// the partition's unassigned trajectories are never measured.
template <typename S>
Collective<S, MeanAcc> MeanSpeedPerSlot(
    const Dataset<Collective<S, Bucket<STTrajectory>>>& converted,
    SpeedUnit unit) {
  double factor = SpeedFactor(unit);
  auto partial = converted.Map(
      [factor](const Collective<S, Bucket<STTrajectory>>& c) {
        const BucketStore<STTrajectory>* store = nullptr;
        std::vector<double> speeds;
        std::vector<bool> measured;
        std::vector<MeanAcc> accs(c.size());
        for (size_t i = 0; i < c.size(); ++i) {
          const Bucket<STTrajectory>& bucket = c.value(i);
          if (bucket.empty()) continue;
          if (bucket.store() != store) {
            store = bucket.store();
            const std::vector<STTrajectory>& items = *store->items;
            speeds.assign(items.size(), 0.0);
            measured.assign(items.size(), false);
            for (uint32_t pos : store->order) {
              if (measured[pos]) continue;
              measured[pos] = true;
              speeds[pos] = items[pos].AverageSpeedMps() * factor;
            }
          }
          for (size_t j = 0; j < bucket.size(); ++j) {
            accs[i].Add(speeds[bucket.index(j)]);
          }
        }
        return Collective<S, MeanAcc>(c.structure(), std::move(accs));
      });
  return CollectAndMerge(partial, MeanAcc{},
                         [](MeanAcc a, const MeanAcc& b) { return a + b; });
}

/// Entries and exits of one trajectory with respect to one (cell, bin): a
/// sample is "inside" when the bin contains its instant AND the cell
/// contains its point; transitions of that flag count as in/out moves.
inline std::pair<int64_t, int64_t> TransitOf(const STTrajectory& t,
                                             const Polygon& cell,
                                             const Duration& bin) {
  int64_t in = 0;
  int64_t out = 0;
  bool prev = false;
  bool first = true;
  for (const STEntry& e : t.entries) {
    bool inside = bin.Contains(e.time) && cell.ContainsPoint(e.point);
    if (inside && !prev && !first) ++in;
    if (!inside && prev) ++out;
    prev = inside;
    first = false;
  }
  return {in, out};
}

}  // namespace extraction_internal

/// Instance count per temporal bin.
template <typename T>
TimeSeries<int64_t> ExtractTsFlow(
    const Dataset<TimeSeries<Bucket<T>>>& converted) {
  return extraction_internal::CountPerSlot(converted);
}

/// Instance count per spatial cell.
template <typename T>
SpatialMap<int64_t> ExtractSmFlow(
    const Dataset<SpatialMap<Bucket<T>>>& converted) {
  return extraction_internal::CountPerSlot(converted);
}

/// Mean trajectory speed per spatial cell (0 where no trajectory passed).
inline SpatialMap<double> ExtractSmSpeed(
    const Dataset<SpatialMap<Bucket<STTrajectory>>>& converted,
    SpeedUnit unit = SpeedUnit::kMetersPerSecond) {
  SpatialMap<MeanAcc> merged =
      extraction_internal::MeanSpeedPerSlot(converted, unit);
  std::vector<double> means;
  means.reserve(merged.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    means.push_back(merged.value(i).Mean());
  }
  return SpatialMap<double>(merged.structure(), std::move(means));
}

/// (entries, exits) per raster cell: how many trajectories moved into and
/// out of each cell during each bin.
inline Raster<std::pair<int64_t, int64_t>> ExtractRasterTransit(
    const Dataset<Raster<Bucket<STTrajectory>>>& converted) {
  auto partial = MapValuePlus(
      converted, [](const Bucket<STTrajectory>& bucket, const Polygon& cell,
                    const Duration& bin) {
        std::pair<int64_t, int64_t> total{0, 0};
        for (const STTrajectory& t : bucket) {
          auto [in, out] = extraction_internal::TransitOf(t, cell, bin);
          total.first += in;
          total.second += out;
        }
        return total;
      });
  return CollectAndMerge(
      partial, std::pair<int64_t, int64_t>{0, 0},
      [](std::pair<int64_t, int64_t> a, const std::pair<int64_t, int64_t>& b) {
        return std::pair<int64_t, int64_t>{a.first + b.first,
                                           a.second + b.second};
      });
}

/// Mean vehicle speed plus vehicle count per raster cell.
inline Raster<CellSpeed> ExtractRasterSpeed(
    const Dataset<Raster<Bucket<STTrajectory>>>& converted,
    SpeedUnit unit = SpeedUnit::kMetersPerSecond) {
  Raster<MeanAcc> merged =
      extraction_internal::MeanSpeedPerSlot(converted, unit);
  std::vector<CellSpeed> speeds;
  speeds.reserve(merged.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    speeds.push_back(CellSpeed{merged.value(i).Mean(), merged.value(i).count});
  }
  return Raster<CellSpeed>(merged.structure(), std::move(speeds));
}

}  // namespace st4ml

#endif  // ST4ML_EXTRACTION_COLLECTIVE_EXTRACTORS_H_
