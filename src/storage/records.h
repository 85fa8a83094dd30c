#ifndef ST4ML_STORAGE_RECORDS_H_
#define ST4ML_STORAGE_RECORDS_H_

#include <cstdint>
#include <vector>

#include "index/stbox.h"
#include "storage/inline_string.h"

namespace st4ml {

/// A point event as stored on disk: one location, one instant, one string
/// attribute payload (taxi trip attributes, an air-quality reading, a POI
/// tag — whatever the dataset carries). Every generated attribute fits
/// inline in `attr`, so a record is 64 bytes and owns no heap block.
struct EventRecord {
  int64_t id = 0;
  double x = 0.0;
  double y = 0.0;
  int64_t time = 0;
  InlineString attr;

  STBox ComputeSTBox() const {
    return STBox(Mbr(Point(x, y)), Duration(time));
  }
};
static_assert(sizeof(EventRecord) == 64, "an event record is one cache line");

/// One sampled trajectory point (lon, lat, epoch seconds).
struct TrajPointRecord {
  double x = 0.0;
  double y = 0.0;
  int64_t time = 0;
};

/// A trajectory as stored on disk: an id and its time-ordered points.
struct TrajRecord {
  int64_t id = 0;
  std::vector<TrajPointRecord> points;

  STBox ComputeSTBox() const {
    Mbr mbr;
    int64_t t_min = 0;
    int64_t t_max = 0;
    bool first = true;
    for (const TrajPointRecord& p : points) {
      mbr.Extend(Point(p.x, p.y));
      if (first) {
        t_min = t_max = p.time;
        first = false;
      } else {
        if (p.time < t_min) t_min = p.time;
        if (p.time > t_max) t_max = p.time;
      }
    }
    return STBox(mbr, Duration(t_min, t_max));
  }
};

}  // namespace st4ml

#endif  // ST4ML_STORAGE_RECORDS_H_
