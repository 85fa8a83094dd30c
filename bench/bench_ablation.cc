// Ablations of the design choices DESIGN.md §4 calls out (the paper argues
// each qualitatively; here they are measured):
//
//  (1) §3.1  select-first-then-partition (ST4ML) vs the conventional
//      partition-first-then-select layout — the latter shuffles ALL records
//      before any filtering.
//  (2) §3.2.2 broadcast-structure conversion (ST4ML, design option 2) vs
//      shuffle-by-cell conversion (design option 1) — the latter performs a
//      full shuffle of the (replicated) singular instances.
//  (3) §2.2  reduceByKey (map-side combine) vs groupByKey.mapValues — the
//      paper's own example of operator choice; both compute hourly counts.
//  (4) §3.1  cold selection through the mmap'd `.stix` sidecar index vs a
//      full parse + kernel filter of every metadata-surviving file.
//
// Each row reports wall time and, where the difference is structural, the
// engine's shuffled-record counters — the distributed cost the design
// choices control.

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "bench_common.h"
#include "conversion/parse.h"
#include "conversion/shuffle_conversion.h"
#include "conversion/singular_to_collective.h"
#include "engine/pair_ops.h"
#include "extraction/rdd_api.h"
#include "partition/str_partitioner.h"
#include "selection/selector.h"

namespace st4ml {
namespace bench {
namespace {

uint64_t ShuffledRecords(const BenchEnv& env) {
  return env.ctx->MetricsSnapshot()[Counter::kShuffleRecords];
}

uint64_t Broadcasts(const BenchEnv& env) {
  return env.ctx->MetricsSnapshot()[Counter::kBroadcasts];
}

void AblateSelectionOrder(const BenchEnv& env) {
  std::printf("\n--- (1) select-first vs partition-first (§3.1) ---\n");
  TablePrinter table(
      {"design", "time", "shuffled records", "shuffled bytes"});
  auto queries =
      MakeShapedQueries(env.nyc_extent, env.nyc_range, 0.4, 14 * 86400, 3, 5);

  // ST4ML: load + filter, then ST-partition the selected subset.
  env.ctx->ResetMetrics();
  double t_select_first = TimeIt([&] {
    for (const STBox& q : queries) {
      SelectorOptions options;
      options.partitioner = std::make_shared<TSTRPartitioner>(4, 8);
      Selector<EventRecord> selector(env.ctx, SelectQuery::FromBox(q), options);
      auto result = selector.Select(env.nyc[2].plain_dir);
      ST4ML_CHECK(result.ok());
    }
  });
  const MetricsSnapshot sf = env.ctx->MetricsSnapshot();
  uint64_t sf_records = sf[Counter::kShuffleRecords];
  uint64_t sf_bytes = sf[Counter::kShuffleBytes];
  table.AddRow({"select-first (ST4ML)", FmtSeconds(t_select_first),
                FmtCount(sf_records), FmtMb(sf_bytes)});

  // Conventional: ST-partition everything, then filter.
  env.ctx->ResetMetrics();
  double t_partition_first = TimeIt([&] {
    for (const STBox& q : queries) {
      SelectorOptions load_opts;
      Selector<EventRecord> loader(env.ctx, SelectQuery::FromBox(STBox(env.nyc_extent, env.nyc_range)),
                                   load_opts);
      auto all = loader.Select(env.nyc[2].plain_dir);
      ST4ML_CHECK(all.ok());
      TSTRPartitioner partitioner(4, 8);
      auto partitioned = TrySTPartition(
          *all, &partitioner,
          [](const EventRecord& r) { return r.ComputeSTBox(); },
          [](const EventRecord& r) { return static_cast<uint64_t>(r.id); });
      ST4ML_CHECK(partitioned.ok());
      partitioned
          ->Filter([&q](const EventRecord& r) {
            return r.ComputeSTBox().Intersects(q);
          })
          .Count();
    }
  });
  const MetricsSnapshot pf = env.ctx->MetricsSnapshot();
  uint64_t pf_records = pf[Counter::kShuffleRecords];
  uint64_t pf_bytes = pf[Counter::kShuffleBytes];
  table.AddRow({"partition-first (conventional)",
                FmtSeconds(t_partition_first), FmtCount(pf_records),
                FmtMb(pf_bytes)});
  table.Print();
}

void AblateConversionDesign(const BenchEnv& env) {
  std::printf("\n--- (2) broadcast-structure vs shuffle-by-cell (§3.2.2) ---\n");
  TablePrinter table({"design", "time", "shuffled records", "broadcasts"});

  SelectorOptions options;
  options.partitioner = std::make_shared<STRPartitioner>(16);
  Selector<EventRecord> selector(
      env.ctx, SelectQuery::FromBox(STBox(env.nyc_extent, env.nyc_range)), options);
  auto selected = selector.Select(env.nyc[1].plain_dir);
  ST4ML_CHECK(selected.ok());
  auto events = ParseEvents(*selected);
  auto structure = std::make_shared<const SpatialStructure>(
      SpatialStructure::Grid(env.nyc_extent, 32, 32));
  auto count_cell = [](const Bucket<STEvent>& arr) {
    return static_cast<int64_t>(arr.size());
  };

  env.ctx->ResetMetrics();
  int64_t total_broadcast = 0;
  double t_broadcast = TimeIt([&] {
    Event2SmConverter<STEvent> converter(structure);
    SpatialMap<int64_t> merged = CollectAndMerge(
        MapValue(converter.Convert(events), count_cell),
        static_cast<int64_t>(0), [](int64_t a, int64_t b) { return a + b; });
    for (size_t i = 0; i < merged.size(); ++i) total_broadcast += merged.value(i);
  });
  table.AddRow({"broadcast structure (ST4ML)", FmtSeconds(t_broadcast),
                FmtCount(ShuffledRecords(env)), FmtCount(Broadcasts(env))});

  env.ctx->ResetMetrics();
  int64_t total_shuffle = 0;
  double t_shuffle = TimeIt([&] {
    auto merged = TryConvertToSpatialMapByShuffle(
        events, structure, [](const std::vector<STEvent>& arr) {
          return static_cast<int64_t>(arr.size());
        });
    ST4ML_CHECK(merged.ok()) << merged.status().ToString();
    for (size_t i = 0; i < merged->size(); ++i) total_shuffle += merged->value(i);
  });
  table.AddRow({"shuffle by cell (rejected)", FmtSeconds(t_shuffle),
                FmtCount(ShuffledRecords(env)), FmtCount(Broadcasts(env))});
  table.Print();
  ST4ML_CHECK(total_broadcast == total_shuffle)
      << "designs disagree: " << total_broadcast << " vs " << total_shuffle;
}

void AblateOperatorChoice(const BenchEnv& env) {
  std::printf("\n--- (3) reduceByKey vs groupByKey (§2.2) ---\n");
  TablePrinter table({"operator", "time", "shuffled records"});

  SelectorOptions options;
  Selector<EventRecord> selector(
      env.ctx, SelectQuery::FromBox(STBox(env.nyc_extent, env.nyc_range)), options);
  auto events = selector.Select(env.nyc[2].plain_dir);
  ST4ML_CHECK(events.ok());
  auto keyed = events->Map([](const EventRecord& r) {
    return std::pair<int64_t, int64_t>(r.time / 3600, 1);
  });

  env.ctx->ResetMetrics();
  double t_reduce = TimeIt([&] {
    auto reduced = TryReduceByKey<int64_t, int64_t>(
        keyed, [](const int64_t& a, const int64_t& b) { return a + b; });
    ST4ML_CHECK(reduced.ok());
    reduced->Count();
  });
  table.AddRow({"reduceByKey(_+_)", FmtSeconds(t_reduce),
                FmtCount(ShuffledRecords(env))});

  env.ctx->ResetMetrics();
  double t_group = TimeIt([&] {
    auto grouped = TryGroupByKey<int64_t, int64_t>(keyed);
    ST4ML_CHECK(grouped.ok());
    grouped
        ->Map([](const std::pair<int64_t, std::vector<int64_t>>& kv) {
          int64_t sum = 0;
          for (int64_t v : kv.second) sum += v;
          return std::pair<int64_t, int64_t>(kv.first, sum);
        })
        .Count();
  });
  table.AddRow({"groupByKey.mapValues(_.sum)", FmtSeconds(t_group),
                FmtCount(ShuffledRecords(env))});
  table.Print();
}

/// A sidecar-less view of a T-STR layout: hard links to its `.stpq` files in
/// a sibling directory (no data is copied). The layout's metadata file names
/// the files relative to whichever directory is selected, so it serves both.
std::string SidecarFreeView(const std::string& dir) {
  namespace fs = std::filesystem;
  const std::string view = dir + "_nostix";
  fs::remove_all(view);
  fs::create_directories(view);
  for (const std::string& path : ListStpqFiles(dir)) {
    std::error_code ec;
    fs::create_hard_link(path, view + "/" + fs::path(path).filename().string(),
                         ec);
    ST4ML_CHECK(!ec) << "link " << path << ": " << ec.message();
  }
  return view;
}

/// One cold run of `queries` over `dir` (the caller turns the cache off, so
/// each file is served through its mmap'd `.stix` sidecar when `dir` has
/// one, else by a full parse + kernel filter); returns seconds, bytes read
/// and records selected.
template <typename RecordT>
void RunSelectPlan(const BenchEnv& env, const std::string& dir,
                   const std::string& meta, const std::vector<STBox>& queries,
                   double* seconds, uint64_t* bytes_read, uint64_t* records) {
  for (const STBox& q : queries) {
    Selector<RecordT> selector(env.ctx, SelectQuery::FromBox(q));
    *seconds += TimeIt([&] {
      auto r = selector.Select(dir, meta);
      ST4ML_CHECK(r.ok()) << r.status().ToString();
      *records += r->Count();
    });
    *bytes_read += selector.stats().bytes_loaded;
  }
}

void AblateDiskIndex(const BenchEnv& env) {
  std::printf("\n--- (4) mmap'd .stix index vs linear scan (§3.1) ---\n");
  std::printf("cold selective queries over the metadata-pruned T-STR layout\n");
  env.ctx->ConfigureCache({});  // budget 0: every query is a cold load
  TablePrinter table({"plan", "events", "events read", "trajectories",
                      "trajectories read"});
  const auto event_queries = MakeShapedQueries(
      env.nyc_extent, env.nyc_range, 0.25, 7 * 86400, 4, 21);
  const auto traj_queries = MakeShapedQueries(
      env.porto_extent, env.porto_range, 0.25, 7 * 86400, 4, 22);
  const ScaledDirs& events = env.nyc[2];
  const ScaledDirs& trajs = env.porto[2];
  const std::string events_scan = SidecarFreeView(events.st4ml_dir);
  const std::string trajs_scan = SidecarFreeView(trajs.st4ml_dir);
  uint64_t selected[2][2] = {};
  for (bool disk_index : {true, false}) {
    double t_e = 0, t_t = 0;
    uint64_t read_e = 0, read_t = 0;
    RunSelectPlan<EventRecord>(
        env, disk_index ? events.st4ml_dir : events_scan, events.st4ml_meta,
        event_queries, &t_e, &read_e, &selected[disk_index][0]);
    RunSelectPlan<TrajRecord>(
        env, disk_index ? trajs.st4ml_dir : trajs_scan, trajs.st4ml_meta,
        traj_queries, &t_t, &read_t, &selected[disk_index][1]);
    table.AddRow({disk_index ? "mmap .stix index" : "linear scan",
                  FmtSeconds(t_e), FmtMb(read_e), FmtSeconds(t_t),
                  FmtMb(read_t)});
  }
  table.Print();
  std::filesystem::remove_all(events_scan);
  std::filesystem::remove_all(trajs_scan);
  ST4ML_CHECK(selected[0][0] == selected[1][0] &&
              selected[0][1] == selected[1][1])
      << "plans disagree on selected records";
}

}  // namespace
}  // namespace bench
}  // namespace st4ml

int main() {
  using namespace st4ml::bench;
  const BenchEnv& env = GetBenchEnv();
  std::printf("== Ablations of ST4ML's design choices ==\n");
  AblateSelectionOrder(env);
  AblateConversionDesign(env);
  AblateOperatorChoice(env);
  AblateDiskIndex(env);
  return 0;
}
