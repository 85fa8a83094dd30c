// The Table 7 applications written with ST4ML's *extension points* instead
// of built-in extractors (the ST4ML-C rows of Table 8): the programmer
// supplies per-instance functions and lifts them with the Table 4 RDD APIs
// (MapValue / MapValuePlus / CollectAndMerge) and the converter's
// preMap/agg hooks.

#include <cstdlib>
#include <utility>

#include "apps.h"
#include "conversion/parse.h"
#include "conversion/singular_to_collective.h"
#include "extraction/extractor.h"
#include "extraction/rdd_api.h"
#include "extraction/traj_extractors.h"
#include "selection/selector.h"
#include "temporal/duration.h"

namespace st4ml {
namespace bench {

namespace {

Dataset<STEvent> SelectEventsC(const BenchEnv& env, const ScaledDirs& dirs,
                               const STBox& query) {
  SelectorOptions options;
  options.partitioner = std::make_shared<TSTRPartitioner>(4, 4);
  Selector<EventRecord> selector(env.ctx, SelectQuery::FromBox(query), options);
  auto selected = selector.Select(dirs.st4ml_dir, dirs.st4ml_meta);
  ST4ML_CHECK(selected.ok()) << selected.status().ToString();
  return ParseEvents(std::move(*selected));
}

Dataset<STTrajectory> SelectTrajsC(const BenchEnv& env, const ScaledDirs& dirs,
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
size_t AnomalySt4mlC(const BenchEnv& env, int scale, const STBox& query) {
  auto events = SelectEventsC(env, env.nyc[scale], query);
  auto is_abnormal = [](const STEvent& e) {
    int h = HourOfDay(e.temporal.start());
    return h >= 23 || h < 4;
  };
  auto anomalies = events.Filter(is_abnormal);
  return anomalies.Count();
}
// LOC-END(anomaly)

// LOC-BEGIN(avg_speed)
size_t AvgSpeedSt4mlC(const BenchEnv& env, int scale, const STBox& query) {
  auto trajs = SelectTrajsC(env, env.porto[scale], query);
  auto speed_of = [](const STTrajectory& t) {
    double meters = 0.0;
    for (size_t i = 1; i < t.entries.size(); ++i) {
      meters += HaversineMeters(t.entries[i - 1].point, t.entries[i].point);
    }
    int64_t span = t.TemporalExtent().Seconds();
    return span > 0 ? meters / span * 3.6 : 0.0;
  };
  auto speeds = trajs.Map(speed_of);
  return speeds.Aggregate(
      static_cast<size_t>(0),
      [](size_t acc, const double& kmh) { return acc + (kmh > 1.0 ? 1 : 0); },
      [](size_t a, size_t b) { return a + b; });
}
// LOC-END(avg_speed)

// LOC-BEGIN(stay_point)
size_t StayPointSt4mlC(const BenchEnv& env, int scale, const STBox& query) {
  auto trajs = SelectTrajsC(env, env.porto[scale], query);
  auto extract_stay_points = [](const STTrajectory& t) {
    return StayPointsOf(t.entries, 200.0, 600);
  };
  auto stays = trajs.Map(extract_stay_points);
  return stays.Aggregate(
      static_cast<size_t>(0),
      [](size_t acc, const std::vector<StayPoint>& v) { return acc + v.size(); },
      [](size_t a, size_t b) { return a + b; });
}
// LOC-END(stay_point)

// LOC-BEGIN(hourly_flow)
size_t HourlyFlowSt4mlC(const BenchEnv& env, int scale, const STBox& query) {
  auto events = SelectEventsC(env, env.nyc[scale], query);
  auto structure = std::make_shared<const TemporalStructure>(
      TemporalStructure::RegularByInterval(query.time, 3600));
  Event2TsConverter<STEvent> converter(structure);
  auto count_cell = [](const std::vector<Unit>& arr) {
    return static_cast<int64_t>(arr.size());
  };
  auto converted = converter.Convert(
      events, [](const STEvent&) { return Unit{}; }, count_cell);
  TimeSeries<int64_t> flow = CollectAndMerge(
      converted, static_cast<int64_t>(0),
      [](int64_t a, int64_t b) { return a + b; });
  size_t total = 0;
  for (size_t i = 0; i < flow.size(); ++i) total += flow.value(i);
  return total;
}
// LOC-END(hourly_flow)

// LOC-BEGIN(grid_speed)
size_t GridSpeedSt4mlC(const BenchEnv& env, int scale, const STBox& query) {
  auto trajs = SelectTrajsC(env, env.porto[scale], query);
  auto structure = std::make_shared<const SpatialStructure>(
      SpatialStructure::Grid(query.mbr, 48, 48));
  Traj2SmConverter<STTrajectory> converter(structure);
  auto cell_mean_speed = [](const Bucket<STTrajectory>& arr) {
    double sum = 0.0;
    for (const STTrajectory& t : arr) sum += t.AverageSpeedMps() * 3.6;
    return arr.empty() ? 0.0 : sum / arr.size();
  };
  auto f = [&](const Dataset<SpatialMap<Bucket<STTrajectory>>>& rdd) {
    return MapValue(rdd, cell_mean_speed);
  };
  auto extractor = MakeExtractor(f);
  auto merged = CollectAndMerge(extractor.Extract(converter.Convert(trajs)),
                                0.0, [](double a, double b) { return a + b; });
  size_t occupied = 0;
  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged.value(i) > 0) ++occupied;
  }
  return occupied;
}
// LOC-END(grid_speed)

// LOC-BEGIN(transition)
size_t TransitionSt4mlC(const BenchEnv& env, int scale, const STBox& query) {
  auto trajs = SelectTrajsC(env, env.porto[scale], query);
  auto structure = std::make_shared<const RasterStructure>(RasterStructure::Regular(
      query.mbr, 16, 16, query.time,
      std::max(1, static_cast<int>(query.time.Seconds() / 3600))));
  Traj2RasterConverter<STTrajectory> converter(structure);
  auto cell_transit = [](const Bucket<STTrajectory>& arr,
                         const Polygon& cell, const Duration& bin) {
    int64_t in = 0, out = 0;
    for (const STTrajectory& t : arr) {
      bool prev = false, first = true;
      for (const auto& e : t.entries) {
        bool inside = bin.Contains(e.time) && cell.ContainsPoint(e.point);
        if (inside && !prev && !first) ++in;
        if (!inside && prev) ++out;
        prev = inside;
        first = false;
      }
    }
    return std::pair<int64_t, int64_t>(in, out);
  };
  auto lifted = MapValuePlus(converter.Convert(trajs), cell_transit);
  auto merged = CollectAndMerge(
      lifted, std::pair<int64_t, int64_t>(0, 0),
      [](std::pair<int64_t, int64_t> a, const std::pair<int64_t, int64_t>& b) {
        return std::pair<int64_t, int64_t>(a.first + b.first,
                                           a.second + b.second);
      });
  size_t total = 0;
  for (size_t i = 0; i < merged.size(); ++i) {
    total += merged.value(i).first + merged.value(i).second;
  }
  return total;
}
// LOC-END(transition)

// LOC-BEGIN(air_over_road)
size_t AirOverRoadSt4mlC(const BenchEnv& env, int, const STBox& query) {
  auto events = SelectEventsC(env, env.air, query);
  auto structure = std::make_shared<const RasterStructure>(
      RasterStructure::CrossProduct(env.road_cells,
                                    TemporalSliding(query.time, 86400)));
  Event2RasterConverter<STEvent> converter(structure);
  auto first_index = [](const STEvent& e) {
    return std::atof(e.data.attr.c_str());
  };
  auto cell_mean = [](const std::vector<double>& values) {
    double sum = 0.0;
    for (double v : values) sum += v;
    return std::pair<double, int64_t>(sum, static_cast<int64_t>(values.size()));
  };
  auto merged = CollectAndMerge(
      converter.Convert(events, first_index, cell_mean),
      std::pair<double, int64_t>(0.0, 0),
      [](std::pair<double, int64_t> a, const std::pair<double, int64_t>& b) {
        return std::pair<double, int64_t>(a.first + b.first,
                                          a.second + b.second);
      });
  size_t covered = 0;
  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged.value(i).second > 0) ++covered;
  }
  return covered;
}
// LOC-END(air_over_road)

// LOC-BEGIN(poi_count)
size_t PoiCountSt4mlC(const BenchEnv& env, int, const STBox& query) {
  STBox poi_query(query.mbr, Duration(0));
  auto events = SelectEventsC(env, env.osm, poi_query);
  auto structure = std::make_shared<const SpatialStructure>(
      SpatialStructure::Irregular(env.postal_areas));
  Event2SmConverter<STEvent> converter(structure);
  auto count_cell = [](const std::vector<Unit>& arr) {
    return static_cast<int64_t>(arr.size());
  };
  auto converted = converter.Convert(
      events, [](const STEvent&) { return Unit{}; }, count_cell);
  SpatialMap<int64_t> counts = CollectAndMerge(
      converted, static_cast<int64_t>(0),
      [](int64_t a, int64_t b) { return a + b; });
  size_t total = 0;
  for (size_t i = 0; i < counts.size(); ++i) total += counts.value(i);
  return total;
}
// LOC-END(poi_count)

}  // namespace bench
}  // namespace st4ml
