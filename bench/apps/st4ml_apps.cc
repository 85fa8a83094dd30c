// The eight Table 7 applications written against ST4ML's built-in operators
// (the ST4ML-B rows of Table 8). Each app is Selection -> Conversion ->
// Extraction with built-in extractors.

#include <cstdlib>
#include <utility>

#include "apps.h"
#include "conversion/parse.h"
#include "conversion/singular_to_collective.h"
#include "extraction/collective_extractors.h"
#include "extraction/event_extractors.h"
#include "extraction/traj_extractors.h"
#include "selection/selector.h"

namespace st4ml {
namespace bench {

namespace {

/// Shared glue (environment setup the paper excludes from app LoC).
Dataset<STEvent> SelectEvents(const BenchEnv& env, const ScaledDirs& dirs,
                              const STBox& query) {
  SelectorOptions options;
  options.partitioner = std::make_shared<TSTRPartitioner>(4, 4);
  Selector<EventRecord> selector(env.ctx, SelectQuery::FromBox(query), options);
  auto selected = selector.Select(dirs.st4ml_dir, dirs.st4ml_meta);
  ST4ML_CHECK(selected.ok()) << selected.status().ToString();
  return ParseEvents(std::move(*selected));
}

Dataset<STTrajectory> SelectTrajs(const BenchEnv& env, const ScaledDirs& dirs,
                                  const STBox& query) {
  SelectorOptions options;
  options.partitioner = std::make_shared<TSTRPartitioner>(4, 4);
  Selector<TrajRecord> selector(env.ctx, SelectQuery::FromBox(query), options);
  auto selected = selector.Select(dirs.st4ml_dir, dirs.st4ml_meta);
  ST4ML_CHECK(selected.ok()) << selected.status().ToString();
  return ParseTrajs(std::move(*selected));
}

}  // namespace

// LOC-BEGIN(anomaly)
size_t AnomalySt4ml(const BenchEnv& env, int scale, const STBox& query) {
  auto events = SelectEvents(env, env.nyc[scale], query);
  auto anomalies = ExtractAnomalies(events, 23, 4);
  return anomalies.Count();
}
// LOC-END(anomaly)

// LOC-BEGIN(avg_speed)
size_t AvgSpeedSt4ml(const BenchEnv& env, int scale, const STBox& query) {
  auto trajs = SelectTrajs(env, env.porto[scale], query);
  auto speeds = ExtractTrajSpeeds(trajs, SpeedUnit::kKilometersPerHour);
  size_t moving = 0;
  for (const auto& [id, kmh] : speeds.Collect()) {
    if (kmh > 1.0) ++moving;
  }
  return moving;
}
// LOC-END(avg_speed)

// LOC-BEGIN(stay_point)
size_t StayPointSt4ml(const BenchEnv& env, int scale, const STBox& query) {
  auto trajs = SelectTrajs(env, env.porto[scale], query);
  auto stays = ExtractStayPoints(trajs, 200.0, 600);
  size_t total = 0;
  for (const auto& [id, points] : stays.Collect()) total += points.size();
  return total;
}
// LOC-END(stay_point)

// LOC-BEGIN(hourly_flow)
size_t HourlyFlowSt4ml(const BenchEnv& env, int scale, const STBox& query) {
  auto events = SelectEvents(env, env.nyc[scale], query);
  auto structure = std::make_shared<const TemporalStructure>(
      TemporalStructure::RegularByInterval(query.time, 3600));
  Event2TsConverter<STEvent> converter(structure);
  TimeSeries<int64_t> flow = ExtractTsFlow(converter.Convert(events));
  size_t total = 0;
  for (size_t i = 0; i < flow.size(); ++i) total += flow.value(i);
  return total;
}
// LOC-END(hourly_flow)

// LOC-BEGIN(grid_speed)
size_t GridSpeedSt4ml(const BenchEnv& env, int scale, const STBox& query) {
  auto trajs = SelectTrajs(env, env.porto[scale], query);
  auto structure = std::make_shared<const SpatialStructure>(
      SpatialStructure::Grid(query.mbr, 48, 48));
  Traj2SmConverter<STTrajectory> converter(structure);
  SpatialMap<double> speed =
      ExtractSmSpeed(converter.Convert(trajs), SpeedUnit::kKilometersPerHour);
  size_t occupied = 0;
  for (size_t i = 0; i < speed.size(); ++i) {
    if (speed.value(i) > 0) ++occupied;
  }
  return occupied;
}
// LOC-END(grid_speed)

// LOC-BEGIN(transition)
size_t TransitionSt4ml(const BenchEnv& env, int scale, const STBox& query) {
  auto trajs = SelectTrajs(env, env.porto[scale], query);
  auto structure = std::make_shared<const RasterStructure>(RasterStructure::Regular(
      query.mbr, 16, 16, query.time,
      std::max(1, static_cast<int>(query.time.Seconds() / 3600))));
  Traj2RasterConverter<STTrajectory> converter(structure);
  auto transit = ExtractRasterTransit(converter.Convert(trajs));
  size_t total = 0;
  for (size_t i = 0; i < transit.size(); ++i) {
    total += transit.value(i).first + transit.value(i).second;
  }
  return total;
}
// LOC-END(transition)

// LOC-BEGIN(air_over_road)
size_t AirOverRoadSt4ml(const BenchEnv& env, int, const STBox& query) {
  auto events = SelectEvents(env, env.air, query);
  auto structure = std::make_shared<const RasterStructure>(
      RasterStructure::CrossProduct(
          env.road_cells, TemporalSliding(query.time, 86400)));
  Event2RasterConverter<STEvent> converter(structure);
  auto pre = [](const STEvent& e) { return std::atof(e.data.attr.c_str()); };
  auto agg = [](const std::vector<double>& values) {
    MeanAcc acc;
    for (double v : values) acc.Add(v);
    return acc;
  };
  Raster<MeanAcc> merged = CollectAndMerge(
      converter.Convert(events, pre, agg), MeanAcc{},
      [](MeanAcc a, const MeanAcc& b) { return a + b; });
  size_t covered = 0;
  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged.value(i).count > 0) ++covered;
  }
  return covered;
}
// LOC-END(air_over_road)

// LOC-BEGIN(poi_count)
size_t PoiCountSt4ml(const BenchEnv& env, int, const STBox& query) {
  STBox poi_query(query.mbr, Duration(0));  // POIs carry no time
  auto events = SelectEvents(env, env.osm, poi_query);
  auto structure = std::make_shared<const SpatialStructure>(
      SpatialStructure::Irregular(env.postal_areas));
  Event2SmConverter<STEvent> converter(structure);
  SpatialMap<int64_t> counts = ExtractSmFlow(converter.Convert(events));
  size_t total = 0;
  for (size_t i = 0; i < counts.size(); ++i) total += counts.value(i);
  return total;
}
// LOC-END(poi_count)

}  // namespace bench
}  // namespace st4ml
