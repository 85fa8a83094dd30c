#include "baselines/geospark_like.h"

#include <utility>
#include <vector>

#include "storage/stpq.h"

namespace st4ml {

StatusOr<Dataset<GeoObject>> GeoSparkLike::LoadAllEvents(
    const std::string& dir) {
  std::vector<std::string> paths = ListStpqFiles(dir);
  if (paths.empty()) return Status::NotFound("no STPQ files under " + dir);
  Dataset<GeoObject>::Partitions parts;
  parts.reserve(paths.size());
  for (const std::string& path : paths) {
    auto records = ReadStpqFile<EventRecord>(path);
    if (!records.ok()) return records.status();
    std::vector<GeoObject> objects;
    objects.reserve(records->size());
    for (const EventRecord& r : *records) {
      objects.push_back(GeoObjectFromEvent(r));
    }
    parts.push_back(std::move(objects));
  }
  return Dataset<GeoObject>::FromPartitions(ctx_, std::move(parts));
}

StatusOr<Dataset<GeoObject>> GeoSparkLike::LoadAllTrajs(
    const std::string& dir) {
  std::vector<std::string> paths = ListStpqFiles(dir);
  if (paths.empty()) return Status::NotFound("no STPQ files under " + dir);
  Dataset<GeoObject>::Partitions parts;
  parts.reserve(paths.size());
  for (const std::string& path : paths) {
    auto records = ReadStpqFile<TrajRecord>(path);
    if (!records.ok()) return records.status();
    std::vector<GeoObject> objects;
    objects.reserve(records->size());
    for (const TrajRecord& r : *records) {
      objects.push_back(GeoObjectFromTraj(r));
    }
    parts.push_back(std::move(objects));
  }
  return Dataset<GeoObject>::FromPartitions(ctx_, std::move(parts));
}

Dataset<GeoObject> GeoSparkLike::RangeQuery(const Dataset<GeoObject>& data,
                                            const Mbr& range) const {
  return data.Filter([range](const GeoObject& o) {
    return o.geom.ComputeMbr().Intersects(range);
  });
}

Dataset<GeoObject> GeoSparkLike::TemporalFilter(const Dataset<GeoObject>& data,
                                                const Duration& range) {
  return data.Filter([range](const GeoObject& o) {
    std::vector<int64_t> times = ParseGeoObjectTimes(o);
    if (times.empty()) return false;
    return Duration(times.front(), times.back()).Intersects(range);
  });
}

}  // namespace st4ml
