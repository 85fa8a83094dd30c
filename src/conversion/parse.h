#ifndef ST4ML_CONVERSION_PARSE_H_
#define ST4ML_CONVERSION_PARSE_H_

#include <utility>

#include "engine/dataset.h"
#include "instances/instances.h"
#include "storage/records.h"

namespace st4ml {

/// Raw-record -> typed-instance parsing, done ONCE right after selection.
/// The baselines instead re-parse string attributes at every use site; that
/// difference is the paper's Table 1 row "data type of location/time".

inline STEvent ToSTEvent(EventRecord record) {
  STEvent event;
  event.spatial = Point(record.x, record.y);
  event.temporal = Duration(record.time);
  event.data.id = record.id;
  event.data.attr = std::move(record.attr);
  return event;
}

inline STTrajectory ToSTTrajectory(const TrajRecord& record) {
  STTrajectory traj;
  traj.data = record.id;
  traj.entries.reserve(record.points.size());
  for (const TrajPointRecord& p : record.points) {
    traj.entries.push_back(STEntry{Point(p.x, p.y), p.time});
  }
  return traj;
}

/// The parses take `records` as a sink: a caller that hands over the sole
/// handle (std::move) has each record moved into its instance, or freed
/// partition by partition once converted; a shared input is copied.
inline Dataset<STEvent> ParseEvents(Dataset<EventRecord> records) {
  return std::move(records).Map(
      [](EventRecord r) { return ToSTEvent(std::move(r)); });
}

inline Dataset<STTrajectory> ParseTrajs(Dataset<TrajRecord> records) {
  return std::move(records).Map(
      [](const TrajRecord& r) { return ToSTTrajectory(r); });
}

}  // namespace st4ml

#endif  // ST4ML_CONVERSION_PARSE_H_
