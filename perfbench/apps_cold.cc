// apps_cold: the eight Table-7 applications (ST4ML-B, bench/apps) run
// round-robin by one closed-loop client over freshly staged T-STR data with
// `.stix` sidecars and the dataset cache off, so every query pays storage
// read/decode, the index walk, refinement, the ST-partition shuffle,
// conversion and extraction. No server, no cache.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "common.h"
#include "conversion/parse.h"
#include "conversion/singular_to_collective.h"
#include "extraction/collective_extractors.h"
#include "extraction/event_extractors.h"
#include "extraction/traj_extractors.h"
#include "partition/st_partition_ops.h"
#include "partition/str_partitioner.h"
#include "selection/on_disk_index.h"
#include "selection/selector.h"

namespace st4ml {
namespace perfbench {

namespace {

namespace fs = std::filesystem;
using bench::BenchEnv;
using bench::ScaledDirs;

constexpr int kFullScale = 2;  // BenchEnv slot of the 100% datasets

template <typename RecordT>
void StageDataset(const std::shared_ptr<ExecutionContext>& ctx,
                  std::vector<RecordT> records, const std::string& dir,
                  int temporal_slices, int spatial_tiles, ScaledDirs* dirs) {
  fs::create_directories(dir);
  auto data = Dataset<RecordT>::Parallelize(ctx, std::move(records), 16);
  TSTRPartitioner partitioner(temporal_slices, spatial_tiles);
  Status staged =
      BuildOnDiskIndex(data, &partitioner, dir, dir + "/index.meta");
  ST4ML_CHECK(staged.ok()) << staged.ToString();
  dirs->st4ml_dir = dir;
  dirs->st4ml_meta = dir + "/index.meta";
}

/// Generates the four ST4ML_SCALE=1 datasets and stages them under `root`
/// with the same T-STR layouts bench_common uses. The datasets are the
/// generators' fixed stand-ins for the paper's (their default seeds): the
/// run seed varies the queries, because with clustered data a different
/// dataset moves the cost of the same query mix by tens of percent.
void Stage(const std::string& root, BenchEnv* out) {
  BenchEnv& env = *out;
  {
    NycEventOptions gen;
    std::vector<EventRecord> events = GenerateNycEvents(gen);
    env.nyc_count[kFullScale] = static_cast<int64_t>(events.size());
    StageDataset(env.ctx, std::move(events), root + "/nyc", 6, 8,
                 &env.nyc[kFullScale]);
    env.nyc_extent = gen.extent;
    env.nyc_range = gen.range;
  }
  {
    PortoTrajOptions gen;
    std::vector<TrajRecord> trajs = GeneratePortoTrajectories(gen);
    env.porto_count[kFullScale] = static_cast<int64_t>(trajs.size());
    StageDataset(env.ctx, std::move(trajs), root + "/porto", 6, 8,
                 &env.porto[kFullScale]);
    env.porto_extent = gen.extent;
    env.porto_range = gen.range;
  }
  {
    AirQualityOptions gen;
    std::vector<EventRecord> air = GenerateAirQuality(gen);
    env.air_count = static_cast<int64_t>(air.size());
    StageDataset(env.ctx, std::move(air), root + "/air", 5, 6, &env.air);
    env.air_extent = gen.extent;
    env.air_range = gen.range;

    RoadNetworkOptions road;
    road.nx = 12;
    road.ny = 12;
    road.extent = gen.extent;
    env.air_network = GenerateRoadNetwork(road);
    // Buffered road-segment rectangles, one per physical road: the
    // irregular cells air-over-road aggregates over.
    env.road_cells.clear();
    for (size_t i = 0; i < env.air_network->num_segments() &&
                       env.road_cells.size() < 400;
         i += 2) {
      Mbr box = env.air_network->segment(static_cast<int32_t>(i))
                    .shape.ComputeMbr();
      env.road_cells.push_back(Polygon::FromMbr(box.Buffered(0.01)));
    }
  }
  {
    OsmOptions gen;
    OsmData osm = GenerateOsm(gen);
    env.osm_count = static_cast<int64_t>(osm.pois.size());
    env.postal_areas = std::move(osm.postal_areas);
    StageDataset(env.ctx, std::move(osm.pois), root + "/osm", 1, 32, &env.osm);
    env.osm_extent = gen.extent;
  }
}

using AppFn = size_t (*)(const BenchEnv&, int, const STBox&);
using StagedFn = size_t (*)(const BenchEnv&, const STBox&, Tracer*);

// --- The traced split: the same public calls the ST4ML-B apps make, with
// --- Select run without a partitioner and TrySTPartition called on its
// --- own, so each layer gets its own bench-side span.

template <typename RecordT>
Dataset<RecordT> SelectAndPartition(const BenchEnv& env, const ScaledDirs& dirs,
                                    const STBox& query, Tracer* tracer) {
  Dataset<RecordT> selected;
  {
    ScopedSpan span(tracer, span_category::kStage, "select");
    Selector<RecordT> selector(env.ctx, SelectQuery::FromBox(query));
    auto result = selector.Select(dirs.st4ml_dir, dirs.st4ml_meta);
    ST4ML_CHECK(result.ok()) << result.status().ToString();
    selected = std::move(*result);
  }
  ScopedSpan span(tracer, span_category::kStage, "st_partition");
  TSTRPartitioner partitioner(4, 4);
  auto partitioned = TrySTPartition(
      selected, &partitioner, [](const RecordT& r) { return r.ComputeSTBox(); },
      [](const RecordT& r) { return static_cast<uint64_t>(r.id); });
  ST4ML_CHECK(partitioned.ok()) << partitioned.status().ToString();
  selected = Dataset<RecordT>();  // a stage frees its input inside its span
  return std::move(*partitioned);
}

template <typename RecordT, typename Parse>
auto TracedParse(const BenchEnv& env, const ScaledDirs& dirs,
                 const STBox& query, Tracer* tracer, Parse parse) {
  auto selected = SelectAndPartition<RecordT>(env, dirs, query, tracer);
  ScopedSpan span(tracer, span_category::kStage, "parse");
  auto parsed = parse(selected);
  selected = Dataset<RecordT>();
  return parsed;
}

Dataset<STEvent> TracedEvents(const BenchEnv& env, const ScaledDirs& dirs,
                              const STBox& query, Tracer* tracer) {
  return TracedParse<EventRecord>(env, dirs, query, tracer, ParseEvents);
}

Dataset<STTrajectory> TracedTrajs(const BenchEnv& env, const ScaledDirs& dirs,
                                  const STBox& query, Tracer* tracer) {
  return TracedParse<TrajRecord>(env, dirs, query, tracer, ParseTrajs);
}

size_t TracedAnomaly(const BenchEnv& env, const STBox& q, Tracer* t) {
  auto events = TracedEvents(env, env.nyc[kFullScale], q, t);
  ScopedSpan span(t, span_category::kStage, "extract");
  return ExtractAnomalies(events, 23, 4).Count();
}

size_t TracedAvgSpeed(const BenchEnv& env, const STBox& q, Tracer* t) {
  auto trajs = TracedTrajs(env, env.porto[kFullScale], q, t);
  ScopedSpan span(t, span_category::kStage, "extract");
  size_t moving = 0;
  for (const auto& [id, kmh] :
       ExtractTrajSpeeds(trajs, SpeedUnit::kKilometersPerHour).Collect()) {
    if (kmh > 1.0) ++moving;
  }
  return moving;
}

size_t TracedStayPoint(const BenchEnv& env, const STBox& q, Tracer* t) {
  auto trajs = TracedTrajs(env, env.porto[kFullScale], q, t);
  ScopedSpan span(t, span_category::kStage, "extract");
  size_t total = 0;
  for (const auto& [id, points] :
       ExtractStayPoints(trajs, 200.0, 600).Collect()) {
    total += points.size();
  }
  return total;
}

size_t TracedHourlyFlow(const BenchEnv& env, const STBox& q, Tracer* t) {
  auto events = TracedEvents(env, env.nyc[kFullScale], q, t);
  ScopedSpan convert(t, span_category::kStage, "convert");
  auto structure = std::make_shared<const TemporalStructure>(
      TemporalStructure::RegularByInterval(q.time, 3600));
  Event2TsConverter<STEvent> converter(structure);
  auto converted = converter.Convert(events);
  convert.End();
  ScopedSpan span(t, span_category::kStage, "extract");
  TimeSeries<int64_t> flow = ExtractTsFlow(converted);
  size_t total = 0;
  for (size_t i = 0; i < flow.size(); ++i) total += flow.value(i);
  return total;
}

size_t TracedGridSpeed(const BenchEnv& env, const STBox& q, Tracer* t) {
  auto trajs = TracedTrajs(env, env.porto[kFullScale], q, t);
  ScopedSpan convert(t, span_category::kStage, "convert");
  auto structure = std::make_shared<const SpatialStructure>(
      SpatialStructure::Grid(q.mbr, 48, 48));
  Traj2SmConverter<STTrajectory> converter(structure);
  auto converted = converter.Convert(trajs);
  convert.End();
  ScopedSpan span(t, span_category::kStage, "extract");
  SpatialMap<double> speed =
      ExtractSmSpeed(converted, SpeedUnit::kKilometersPerHour);
  size_t occupied = 0;
  for (size_t i = 0; i < speed.size(); ++i) {
    if (speed.value(i) > 0) ++occupied;
  }
  return occupied;
}

size_t TracedTransition(const BenchEnv& env, const STBox& q, Tracer* t) {
  auto trajs = TracedTrajs(env, env.porto[kFullScale], q, t);
  ScopedSpan convert(t, span_category::kStage, "convert");
  auto structure = std::make_shared<const RasterStructure>(
      RasterStructure::Regular(
          q.mbr, 16, 16, q.time,
          std::max(1, static_cast<int>(q.time.Seconds() / 3600))));
  Traj2RasterConverter<STTrajectory> converter(structure);
  auto converted = converter.Convert(trajs);
  convert.End();
  ScopedSpan span(t, span_category::kStage, "extract");
  auto transit = ExtractRasterTransit(converted);
  size_t total = 0;
  for (size_t i = 0; i < transit.size(); ++i) {
    total += transit.value(i).first + transit.value(i).second;
  }
  return total;
}

size_t TracedAirOverRoad(const BenchEnv& env, const STBox& q, Tracer* t) {
  auto events = TracedEvents(env, env.air, q, t);
  ScopedSpan convert(t, span_category::kStage, "convert");
  auto structure = std::make_shared<const RasterStructure>(
      RasterStructure::CrossProduct(env.road_cells,
                                    TemporalSliding(q.time, 86400)));
  Event2RasterConverter<STEvent> converter(structure);
  auto pre = [](const STEvent& e) { return std::atof(e.data.attr.c_str()); };
  auto agg = [](const std::vector<double>& values) {
    MeanAcc acc;
    for (double v : values) acc.Add(v);
    return acc;
  };
  auto converted = converter.Convert(events, pre, agg);
  convert.End();
  ScopedSpan span(t, span_category::kStage, "extract");
  Raster<MeanAcc> merged =
      CollectAndMerge(converted, MeanAcc{},
                      [](MeanAcc a, const MeanAcc& b) { return a + b; });
  size_t covered = 0;
  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged.value(i).count > 0) ++covered;
  }
  return covered;
}

size_t TracedPoiCount(const BenchEnv& env, const STBox& q, Tracer* t) {
  STBox poi_query(q.mbr, Duration(0));  // POIs carry no time
  auto events = TracedEvents(env, env.osm, poi_query, t);
  ScopedSpan convert(t, span_category::kStage, "convert");
  auto structure = std::make_shared<const SpatialStructure>(
      SpatialStructure::Irregular(env.postal_areas));
  Event2SmConverter<STEvent> converter(structure);
  auto converted = converter.Convert(events);
  convert.End();
  ScopedSpan span(t, span_category::kStage, "extract");
  SpatialMap<int64_t> counts = ExtractSmFlow(converted);
  size_t total = 0;
  for (size_t i = 0; i < counts.size(); ++i) total += counts.value(i);
  return total;
}

enum class Data { kNyc, kPorto, kAir, kOsm };

struct App {
  const char* name;
  AppFn st4ml;      // ST4ML-B: the measured operation
  AppFn reference;  // ST4ML-C: the answer check
  StagedFn traced;  // the same calls, split per layer
  Data data;
  double side_fraction;  // spatial query side, per axis (Fig. 7 shapes)
  int64_t span_seconds;  // temporal query window
};

const App kApps[] = {
    {"anomaly", bench::AnomalySt4ml, bench::AnomalySt4mlC, TracedAnomaly,
     Data::kNyc, 0.6, 60 * 86400},
    {"avg_speed", bench::AvgSpeedSt4ml, bench::AvgSpeedSt4mlC, TracedAvgSpeed,
     Data::kPorto, 0.6, 60 * 86400},
    {"stay_point", bench::StayPointSt4ml, bench::StayPointSt4mlC,
     TracedStayPoint, Data::kPorto, 0.6, 60 * 86400},
    {"hourly_flow", bench::HourlyFlowSt4ml, bench::HourlyFlowSt4mlC,
     TracedHourlyFlow, Data::kNyc, 0.6, 14 * 86400},
    {"grid_speed", bench::GridSpeedSt4ml, bench::GridSpeedSt4mlC,
     TracedGridSpeed, Data::kPorto, 0.5, 30 * 86400},
    {"transition", bench::TransitionSt4ml, bench::TransitionSt4mlC,
     TracedTransition, Data::kPorto, 0.5, 2 * 86400},
    {"air_over_road", bench::AirOverRoadSt4ml, bench::AirOverRoadSt4mlC,
     TracedAirOverRoad, Data::kAir, 0.8, 7 * 86400},
    {"poi_count", bench::PoiCountSt4ml, bench::PoiCountSt4mlC, TracedPoiCount,
     Data::kOsm, 0.7, 1},
};
constexpr size_t kNumApps = sizeof(kApps) / sizeof(kApps[0]);
// Each app cycles through a stratified pool of kPoolGrid^2 Fig-7-shaped
// boxes; a run covers each pool a few times.
constexpr int kPoolGrid = 4;

struct Op {
  size_t app;
  size_t box;
  size_t answer;
  double ms;
};

/// One closed-loop client, round-robin over the apps, until `seconds` have
/// passed AND the current round is complete (so every app is equally
/// represented). A non-null tracer runs the traced split instead.
std::vector<Op> RunLoop(const BenchEnv& env,
                        const std::vector<std::vector<STBox>>& boxes,
                        double seconds, Tracer* tracer) {
  std::vector<Op> ops;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  for (size_t i = 0; i % kNumApps != 0 || Clock::now() < deadline; ++i) {
    const size_t a = i % kNumApps;
    const size_t b = (i / kNumApps) % boxes[a].size();
    const App& app = kApps[a];
    const STBox& box = boxes[a][b];
    auto start = Clock::now();
    size_t answer;
    if (tracer == nullptr) {
      answer = app.st4ml(env, kFullScale, box);
    } else {
      ScopedSpan span(tracer, span_category::kJob,
                      std::string("op/") + app.name);
      answer = app.traced(env, box, tracer);
    }
    ops.push_back(Op{a, b, answer, MsSince(start)});
  }
  return ops;
}

/// Re-answers every distinct (app, box) query once with the ST4ML-C
/// implementation; every op asking it must have got that answer.
void CheckAnswers(const BenchEnv& env,
                  const std::vector<std::vector<STBox>>& boxes,
                  const std::vector<Op>& ops, Report* report) {
  std::map<std::pair<size_t, size_t>, size_t> expected;
  for (const Op& op : ops) {
    const App& app = kApps[op.app];
    auto [it, fresh] = expected.try_emplace({op.app, op.box}, 0);
    if (fresh) {
      it->second = app.reference(env, kFullScale, boxes[op.app][op.box]);
    }
    if (it->second != op.answer) {
      report->WrongAnswer(std::string(app.name) + " box " +
                          std::to_string(op.box) + ": got " +
                          std::to_string(op.answer) + ", ST4ML-C says " +
                          std::to_string(it->second));
    }
  }
  report->Config("checked_queries", static_cast<double>(expected.size()));
}

Samples Latencies(const std::vector<Op>& ops) {
  Samples s;
  for (const Op& op : ops) s.Add(op.ms);
  return s;
}

}  // namespace

int RunAppsCold(const RunConfig& config) {
  Report report(config);
  report.Config("workers", config.workers);
  report.Config("clients", 1);

  // Setup, three times from scratch; the median is setup_s and the last
  // staging is the one measured.
  BenchEnv env;
  Samples setup_s;
  for (int rep = 0; rep < 3; ++rep) {
    const std::string root = config.data_dir + "/setup" + std::to_string(rep);
    if (rep > 0) {
      fs::remove_all(config.data_dir + "/setup" + std::to_string(rep - 1));
    }
    auto start = Clock::now();
    env = BenchEnv{};
    env.ctx = ExecutionContext::Create(config.workers);
    env.ctx->ConfigureCache(DatasetCache::Options{});  // budget 0
    Stage(root, &env);
    setup_s.Add(MsSince(start) / 1000.0);
  }

  std::vector<std::vector<STBox>> boxes;
  for (size_t a = 0; a < kNumApps; ++a) {
    const App& app = kApps[a];
    Mbr extent;
    Duration range;
    switch (app.data) {
      case Data::kNyc:
        extent = env.nyc_extent;
        range = env.nyc_range;
        break;
      case Data::kPorto:
        extent = env.porto_extent;
        range = env.porto_range;
        break;
      case Data::kAir:
        extent = env.air_extent;
        range = env.air_range;
        break;
      case Data::kOsm:
        extent = env.osm_extent;
        range = Duration(0, 1);
        break;
    }
    boxes.push_back(StratifiedBoxes(
        extent, range, extent.Width() * app.side_fraction,
        extent.Height() * app.side_fraction, app.span_seconds, kPoolGrid,
        StreamSeed(config.seed, 100 + a)));
  }

  // Untraced: the end-to-end numbers (the whole run, or its first half
  // when traced, for the overhead comparison).
  const double untraced_s = config.traced ? config.seconds / 2 : config.seconds;
  const MetricsSnapshot before = env.ctx->MetricsSnapshot();
  auto start = Clock::now();
  std::vector<Op> ops = RunLoop(env, boxes, untraced_s, nullptr);
  const double elapsed_s = MsSince(start) / 1000.0;
  const MetricsSnapshot counters = Delta(env.ctx->MetricsSnapshot(), before);
  // Before any checking or probing allocates: setup plus the measured run.
  report.Metric("peak_rss_mb", PeakRssMb(), "MB", 1);

  const Samples latency = Latencies(ops);
  report.Attempted(ops.size());
  report.Metric("setup_s", setup_s.Median(), "s", setup_s.size());
  report.Metric("latency_p50_ms", latency.Median(), "ms", latency.size());
  report.Metric("latency_p90_ms", latency.Percentile(90), "ms",
                latency.size());
  report.Metric("throughput_ops_s", ops.size() / elapsed_s, "1/s",
                ops.size());
  for (size_t a = 0; a < kNumApps; ++a) {
    Samples app_ms;
    for (const Op& op : ops) {
      if (op.app == a) app_ms.Add(op.ms);
    }
    report.Metric(std::string("app.") + kApps[a].name + ".p50_ms",
                  app_ms.Median(), "ms", app_ms.size());
  }
  report.CounterMetrics(counters, ops.size());

  if (config.traced) {
    Tracer tracer;
    std::vector<Op> traced_ops =
        RunLoop(env, boxes, config.seconds - untraced_s, &tracer);
    report.Attempted(traced_ops.size());
    SpanTimes spans = AnalyzeSpans(tracer);
    report.Metric("selection.select_ms_p50", spans.total_ms["select"].Median(),
                  "ms", spans.total_ms["select"].size());
    report.Metric("partition.st_partition_ms_p50",
                  spans.total_ms["st_partition"].Median(), "ms",
                  spans.total_ms["st_partition"].size());
    report.Metric("conversion.parse_ms_p50", spans.total_ms["parse"].Median(),
                  "ms", spans.total_ms["parse"].size());
    report.Metric("conversion.convert_ms_p50",
                  spans.total_ms["convert"].Median(), "ms",
                  spans.total_ms["convert"].size());
    report.Metric("extraction.extract_ms_p50",
                  spans.total_ms["extract"].Median(), "ms",
                  spans.total_ms["extract"].size());
    // Share of traced op time the stage spans account for.
    double op_total = 0;
    double op_self = 0;
    for (const App& app : kApps) {
      const std::string name = std::string("op/") + app.name;
      op_total += spans.total_ms[name].Sum();
      op_self += spans.self_ms[name].Sum();
    }
    report.Metric("trace.stage_coverage",
                  op_total > 0 ? 1.0 - op_self / op_total : 0.0, "ratio",
                  traced_ops.size());
    const Samples traced_latency = Latencies(traced_ops);
    report.Metric("trace.overhead_ratio",
                  traced_latency.Median() / latency.Median(), "ratio",
                  traced_ops.size());
    ExportTrace(tracer, config);
    ops.insert(ops.end(), traced_ops.begin(), traced_ops.end());

    ProbeInput probe;
    probe.stpq_files = StpqFilesIn(env.nyc[kFullScale].st4ml_dir);
    probe.boxes = boxes[0];  // the anomaly app's NYC boxes
    probe.workers = config.workers;
    ProbeStorageIndexAccel(probe, &report);
    ProbeServer(env.nyc[kFullScale].st4ml_dir, probe, &report);
    ProbeAppend(config.data_dir + "/append_probe",
                GenerateNycEvents(NycEventOptions{}), &report);
  }
  CheckAnswers(env, boxes, ops, &report);
  return report.Finish();
}

}  // namespace perfbench
}  // namespace st4ml
