#ifndef ST4ML_INSTANCES_INSTANCES_H_
#define ST4ML_INSTANCES_INSTANCES_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "geometry/linestring.h"
#include "geometry/point.h"
#include "index/stbox.h"
#include "instances/structures.h"
#include "storage/inline_string.h"

namespace st4ml {

/// Empty payload for instances whose mere presence is the signal.
struct Unit {};

/// One (value, time) sample of a typed trajectory.
template <typename V>
struct TimedValue {
  V value{};
  int64_t time = 0;
};

/// A generic typed trajectory: per-object data plus timed entries. The
/// output of trajectory-to-trajectory conversions like map matching
/// (Trajectory<int64_t, int64_t>: trip id + per-sample road-segment ids).
template <typename DataT, typename ValueT>
struct Trajectory {
  DataT data{};
  std::vector<TimedValue<ValueT>> entries;
};

/// One spatial sample of an ST trajectory.
struct STEntry {
  Point point;
  int64_t time = 0;
};

/// Typed data carried by an STEvent.
struct EventData {
  int64_t id = 0;
  InlineString attr;
};

/// The singular "event" instance: one location, one (possibly degenerate)
/// time interval, typed data — no string parsing at use sites (Table 1).
struct STEvent {
  Point spatial;
  Duration temporal;
  EventData data;

  STBox ComputeSTBox() const { return STBox(Mbr(spatial), temporal); }
};

/// The singular "trajectory" instance: id plus time-ordered spatial entries.
struct STTrajectory {
  int64_t data = 0;
  std::vector<STEntry> entries;

  Duration TemporalExtent() const {
    if (entries.empty()) return Duration();
    return Duration(entries.front().time, entries.back().time);
  }

  LineString Shape() const {
    std::vector<Point> points;
    points.reserve(entries.size());
    for (const STEntry& e : entries) points.push_back(e.point);
    return LineString(std::move(points));
  }

  /// Whole-trajectory mean speed: great-circle length over elapsed time.
  /// Segment lengths are summed left to right, the order the cross-system
  /// checksum audit pins.
  double AverageSpeedMps() const {
    double meters = 0.0;
    for (size_t i = 1; i < entries.size(); ++i) {
      meters += HaversineMeters(entries[i - 1].point, entries[i].point);
    }
    int64_t span = TemporalExtent().Seconds();
    return span > 0 ? meters / static_cast<double>(span) : 0.0;
  }

  STBox ComputeSTBox() const {
    Mbr mbr;
    for (const STEntry& e : entries) mbr.Extend(e.point);
    return STBox(mbr, TemporalExtent());
  }
};

/// A detected stay: the visited region's representative point and dwell.
struct StayPoint {
  Point center;
  Duration duration;
  int64_t num_points = 0;
};

/// One partition's converted instances (paper §3.2.2: cells reference
/// instances, they do not copy them): `items` is the converted input
/// partition itself, shared with the dataset it came from, and `order`
/// holds the positions in `items` of the instances that joined a slot,
/// grouped slot by slot (CSR), that the partition's buckets read through.
template <typename T>
struct BucketStore {
  std::shared_ptr<const std::vector<T>> items;
  std::vector<uint32_t> order;
};

/// The value of one collective slot after conversion: a read-only view of
/// the instances assigned to the slot, in partition input order. The
/// non-empty buckets of one collective share their partition's store and
/// keep it alive; an empty bucket holds no reference at all.
template <typename T>
class Bucket {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    Iterator() = default;
    Iterator(const uint32_t* pos, const T* items) : pos_(pos), items_(items) {}

    const T& operator*() const { return items_[*pos_]; }
    Iterator& operator++() {
      ++pos_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++pos_;
      return before;
    }
    bool operator==(const Iterator& other) const { return pos_ == other.pos_; }

   private:
    const uint32_t* pos_ = nullptr;
    const T* items_ = nullptr;
  };

  Bucket() = default;
  /// Slot entries [begin, end) of `store->order`.
  Bucket(std::shared_ptr<const BucketStore<T>> store, uint32_t begin,
         uint32_t end)
      : store_(std::move(store)), begin_(begin), end_(end) {}

  size_t size() const { return end_ - begin_; }
  bool empty() const { return begin_ == end_; }
  /// Where the j-th instance of the slot sits in `*store()->items`.
  uint32_t index(size_t j) const { return store_->order[begin_ + j]; }
  const T& operator[](size_t j) const { return (*store_->items)[index(j)]; }
  Iterator begin() const { return At(begin_); }
  Iterator end() const { return At(end_); }
  /// The partition store the bucket reads; null when the bucket is empty.
  const BucketStore<T>* store() const { return store_.get(); }

 private:
  Iterator At(uint32_t pos) const {
    if (store_ == nullptr) return Iterator();
    return Iterator(store_->order.data() + pos, store_->items->data());
  }

  std::shared_ptr<const BucketStore<T>> store_;
  uint32_t begin_ = 0;
  uint32_t end_ = 0;
};

/// Structures whose slots have a spatial cell (SpatialStructure,
/// RasterStructure) and whose slots have a temporal bin (TemporalStructure,
/// RasterStructure).
template <typename S>
concept HasCells = requires(const S& s, size_t i) { s.cell(i); };
template <typename S>
concept HasBins = requires(const S& s, size_t i) { s.bin(i); };

/// A collective instance (paper §3.2.1): a structure shared across
/// partitions plus one value per structure slot. Conversion emits one per
/// engine partition holding that partition's contribution; CollectAndMerge
/// folds them into one.
template <typename S, typename V>
class Collective {
 public:
  Collective() = default;
  Collective(std::shared_ptr<const S> structure, std::vector<V> values)
      : structure_(std::move(structure)), values_(std::move(values)) {
    ST4ML_CHECK(values_.size() == structure_->size())
        << "value count must match structure size";
  }
  Collective(std::shared_ptr<const S> structure, const V& init)
      : Collective(structure,
                   std::vector<V>(structure ? structure->size() : 0, init)) {}

  size_t size() const { return values_.size(); }
  const V& value(size_t i) const { return values_[i]; }
  V& mutable_value(size_t i) { return values_[i]; }
  const std::vector<V>& values() const { return values_; }
  const Polygon& cell(size_t i) const
    requires HasCells<S>
  {
    return structure_->cell(i);
  }
  const Duration& bin(size_t i) const
    requires HasBins<S>
  {
    return structure_->bin(i);
  }
  const std::shared_ptr<const S>& structure() const { return structure_; }

 private:
  std::shared_ptr<const S> structure_;
  std::vector<V> values_;
};

/// The paper's three collective types: values per temporal bin, per spatial
/// cell, and per (cell, bin) of a raster.
template <typename V>
using TimeSeries = Collective<TemporalStructure, V>;
template <typename V>
using SpatialMap = Collective<SpatialStructure, V>;
template <typename V>
using Raster = Collective<RasterStructure, V>;

}  // namespace st4ml

#endif  // ST4ML_INSTANCES_INSTANCES_H_
