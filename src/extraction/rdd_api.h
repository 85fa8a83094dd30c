#ifndef ST4ML_EXTRACTION_RDD_API_H_
#define ST4ML_EXTRACTION_RDD_API_H_

#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "engine/dataset.h"
#include "instances/instances.h"

namespace st4ml {

/// The collective-RDD extraction vocabulary (paper §3.3): MapValue rewrites
/// every slot value in place, MapValuePlus additionally hands the slot its
/// own geometry/bin, and CollectAndMerge folds the per-partition collectives
/// a converter emitted into the single result the user asked for.

namespace extraction_internal {

/// `f` on slot `i`'s value plus where the slot sits in the structure:
/// (value, bin) for a time series, (value, cell) for a spatial map and
/// (value, cell, bin) for a raster.
template <typename S, typename V, typename Fn>
auto CallPlus(const Fn& f, const Collective<S, V>& c, size_t i) {
  if constexpr (HasCells<S> && HasBins<S>) {
    return f(c.value(i), c.cell(i), c.bin(i));
  } else if constexpr (HasCells<S>) {
    return f(c.value(i), c.cell(i));
  } else {
    return f(c.value(i), c.bin(i));
  }
}

/// Rebuilds every collective of `data` with slot i's value replaced by
/// `slot_fn(collective, i)`.
template <typename S, typename V, typename SlotFn>
auto MapSlots(const Dataset<Collective<S, V>>& data, SlotFn slot_fn) {
  using R = std::decay_t<std::invoke_result_t<SlotFn, const Collective<S, V>&,
                                              size_t>>;
  return data.Map([slot_fn](const Collective<S, V>& c) {
    std::vector<R> values;
    values.reserve(c.size());
    for (size_t i = 0; i < c.size(); ++i) values.push_back(slot_fn(c, i));
    return Collective<S, R>(c.structure(), std::move(values));
  });
}

}  // namespace extraction_internal

template <typename S, typename V, typename Fn>
auto MapValue(const Dataset<Collective<S, V>>& data, Fn f) {
  return extraction_internal::MapSlots(
      data, [f](const Collective<S, V>& c, size_t i) { return f(c.value(i)); });
}

template <typename S, typename V, typename Fn>
auto MapValuePlus(const Dataset<Collective<S, V>>& data, Fn f) {
  return extraction_internal::MapSlots(
      data, [f](const Collective<S, V>& c, size_t i) {
        return extraction_internal::CallPlus(f, c, i);
      });
}

template <typename S, typename V, typename R, typename MergeFn>
Collective<S, R> CollectAndMerge(const Dataset<Collective<S, V>>& data, R zero,
                                 MergeFn merge) {
  std::vector<Collective<S, V>> parts = data.Collect();
  ST4ML_CHECK(!parts.empty()) << "CollectAndMerge on an empty dataset";
  Collective<S, R> out(parts.front().structure(), zero);
  for (const Collective<S, V>& part : parts) {
    ST4ML_CHECK(part.size() == out.size())
        << "partitions disagree on structure size";
    for (size_t i = 0; i < out.size(); ++i) {
      out.mutable_value(i) = merge(std::move(out.mutable_value(i)),
                                   part.value(i));
    }
  }
  return out;
}

}  // namespace st4ml

#endif  // ST4ML_EXTRACTION_RDD_API_H_
