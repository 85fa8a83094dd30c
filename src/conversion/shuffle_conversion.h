#ifndef ST4ML_CONVERSION_SHUFFLE_CONVERSION_H_
#define ST4ML_CONVERSION_SHUFFLE_CONVERSION_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "conversion/singular_to_collective.h"
#include "engine/dataset.h"
#include "engine/pair_ops.h"
#include "instances/instances.h"

namespace st4ml {

/// The shuffle-based conversion strategy the paper's design rejected
/// (DESIGN.md §3.2.2 option 1), kept for the ablation benchmark: key every
/// instance by its structure cell, shuffle everything by key, aggregate per
/// cell, and assemble ONE SpatialMap on the driver.
///
/// Cell assignment uses exactly the same rules as the broadcast converters —
/// events join their first containing cell, trajectories every intersecting
/// cell — so the ablation can assert the two strategies agree bit for bit;
/// the difference is purely that this one moves records instead of the
/// structure.
///
/// A failed shuffle task surfaces as the returned Status.
template <typename T, typename AggFn>
auto TryConvertToSpatialMapByShuffle(
    const Dataset<T>& data,
    const std::shared_ptr<const SpatialStructure>& structure, AggFn agg)
    -> StatusOr<SpatialMap<
        std::decay_t<std::invoke_result_t<AggFn, const std::vector<T>&>>>> {
  namespace ci = conversion_internal;
  ci::AssertSingular<T>();
  using R = std::decay_t<std::invoke_result_t<AggFn, const std::vector<T>&>>;
  if (structure == nullptr) {
    return Status::InvalidArgument("null spatial structure");
  }
  ScopedSpan op(data.context()->tracer(), span_category::kOperation,
                "convert_to_spatial_map_by_shuffle");
  op.AddArg("records_in", data.Count());

  auto keyed = data.FlatMap(
      [structure](const T& item) {
        std::vector<std::pair<int64_t, T>> out;
        if constexpr (ci::kIsEvent<T>) {
          size_t cell = structure->FindCell(item.spatial);
          if (cell != SpatialStructure::kNoCell) {
            out.emplace_back(static_cast<int64_t>(cell), item);
          }
        } else {
          for (size_t cell : structure->IntersectingCells(item.Shape())) {
            out.emplace_back(static_cast<int64_t>(cell), item);
          }
        }
        return out;
      },
      "conversion/shuffleKey");

  // The grouped Dataset is sole owner of its partitions and dies here, so
  // the rvalue Collect moves the (cell, instances) groups instead of
  // copying every shuffled record a second time.
  auto grouped = TryGroupByKey<int64_t, T>(keyed);
  if (!grouped.ok()) return grouped.status();
  auto groups = std::move(grouped).value().Collect();
  // Keys arrive hash-partitioned; order them before the merge scan below.
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<R> values;
  values.reserve(structure->size());
  size_t next = 0;
  const std::vector<T> empty;
  for (size_t cell = 0; cell < structure->size(); ++cell) {
    if (next < groups.size() &&
        groups[next].first == static_cast<int64_t>(cell)) {
      values.push_back(agg(groups[next].second));
      ++next;
    } else {
      values.push_back(agg(empty));
    }
  }
  op.AddArg("cells_out", values.size());
  return SpatialMap<R>(structure, std::move(values));
}

}  // namespace st4ml

#endif  // ST4ML_CONVERSION_SHUFFLE_CONVERSION_H_
