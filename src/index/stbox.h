#ifndef ST4ML_INDEX_STBOX_H_
#define ST4ML_INDEX_STBOX_H_

#include "geometry/mbr.h"
#include "temporal/duration.h"

namespace st4ml {

/// A spatio-temporal bounding box: a 2-d MBR extruded over a closed time
/// interval. This is the envelope every instance and every partition exposes,
/// and the unit the partitioners, on-disk metadata, and R-trees all speak.
struct STBox {
  Mbr mbr;
  Duration time;

  STBox() = default;
  STBox(const Mbr& mbr_in, const Duration& time_in)
      : mbr(mbr_in), time(time_in) {}

  bool Intersects(const STBox& other) const {
    return mbr.Intersects(other.mbr) && time.Intersects(other.time);
  }

  bool Contains(const STBox& other) const {
    return mbr.Contains(other.mbr) && time.Contains(other.time);
  }

  void Extend(const STBox& other) {
    if (mbr.IsEmpty()) {
      *this = other;
      return;
    }
    mbr.Extend(other.mbr);
    time.Extend(other.time);
  }

  /// Spatio-temporal volume (area x seconds); degenerate extents count as 0.
  double Volume() const {
    return mbr.Area() * static_cast<double>(time.Seconds());
  }
};

/// An envelope that can match SOME query: non-inverted and NaN-free. Every
/// union of record envelopes (a cached file's, a `.stix` node's, a part's in
/// index.meta) skips the others: they never match, an empty trajectory's
/// inverted box must not widen the union, and a NaN must not poison it into
/// rejecting everything.
inline bool IsValidEnvelope(const STBox& box) {
  return box.mbr.x_min <= box.mbr.x_max && box.mbr.y_min <= box.mbr.y_max &&
         box.time.start() <= box.time.end();
}

}  // namespace st4ml

#endif  // ST4ML_INDEX_STBOX_H_
