// Table 6: efficiency of the T-STR partitioner versus the original 2-d STR
// in the two pipeline roles the paper measures:
//   (1) index construction for data loading — 10 random ST selections over
//       on-disk layouts built with each partitioner;
//   (2) companion feature extraction — partition-with-duplication followed by
//       partition-local companion search (pairs within 1 km / 15 min).
//
// Expected shape (paper): T-STR is 4.6x/1.6x faster on loading (events/
// trajectories) and 2x/7x faster on companion extraction, because temporal
// slicing both prunes irrelevant partitions and shrinks the per-partition
// pair-search space.

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench_common.h"
#include "conversion/parse.h"
#include "extraction/event_extractors.h"
#include "extraction/traj_extractors.h"
#include "partition/st_partition_ops.h"
#include "partition/str_partitioner.h"
#include "selection/on_disk_index.h"
#include "selection/selector.h"

namespace st4ml {
namespace bench {
namespace {

constexpr int kPartitions = 64;
constexpr double kCompanionDistM = 1000.0;
constexpr int64_t kCompanionDtS = 15 * 60;

template <typename RecordT>
std::vector<RecordT> LoadRecords(const BenchEnv& env, const ScaledDirs& dirs,
                                 const Mbr& extent, const Duration& range) {
  SelectorOptions options;
  Selector<RecordT> selector(env.ctx, SelectQuery::FromBox(STBox(extent, range)), options);
  auto data = selector.Select(dirs.plain_dir);
  ST4ML_CHECK(data.ok()) << data.status().ToString();
  return data->Collect();
}

/// Builds an on-disk layout with `partitioner` and times 10 random
/// selections against it.
template <typename RecordT>
double TimeSelections(const BenchEnv& env, std::vector<RecordT> records,
                      STPartitioner* partitioner, const std::string& dir,
                      const Mbr& extent, const Duration& range) {
  auto data =
      Dataset<RecordT>::Parallelize(env.ctx, std::move(records), 16);
  ST4ML_CHECK(BuildOnDiskIndex(data, partitioner, dir, dir + "/meta").ok());
  // Weekly-scale temporal windows over a third of the city — the query
  // profile §4.1's motivating example argues T-STR should serve.
  auto queries = MakeShapedQueries(extent, range, 0.35, 7 * 86400, 10, 4242);
  auto run_batch = [&] {
    for (const STBox& q : queries) {
      SelectorOptions options;
      Selector<RecordT> selector(env.ctx, SelectQuery::FromBox(q), options);
      auto result = selector.Select(dir, dir + "/meta");
      ST4ML_CHECK(result.ok()) << result.status().ToString();
    }
  };
  // Best of 3 batches (first run doubles as page-cache warmup).
  double best = 1e30;
  for (int r = 0; r < 3; ++r) best = std::min(best, TimeIt(run_batch));
  return best;
}

/// Partition-with-duplication + partition-local companion extraction.
double TimeEventCompanions(const Dataset<STEvent>& events,
                           STPartitioner* partitioner) {
  return TimeIt([&] {
    STPartitionOptions options;
    options.duplicate = true;
    auto partitioned = TrySTPartition(
        events, partitioner,
        [](const STEvent& e) { return e.ComputeSTBox(); },
        [](const STEvent& e) { return static_cast<uint64_t>(e.data.id); },
        options);
    ST4ML_CHECK(partitioned.ok());
    ExtractEventCompanions(*partitioned, kCompanionDistM, kCompanionDtS,
                           [](const STEvent& e) { return e.data.id; })
        .Count();
  });
}

double TimeTrajCompanions(const Dataset<STTrajectory>& trajs,
                          STPartitioner* partitioner) {
  return TimeIt([&] {
    STPartitionOptions options;
    options.duplicate = true;
    auto partitioned = TrySTPartition(
        trajs, partitioner,
        [](const STTrajectory& t) { return t.ComputeSTBox(); },
        [](const STTrajectory& t) { return static_cast<uint64_t>(t.data); },
        options);
    ST4ML_CHECK(partitioned.ok());
    ExtractTrajCompanions(*partitioned, kCompanionDistM, kCompanionDtS,
                          [](const STTrajectory& t) { return t.data; })
        .Count();
  });
}

}  // namespace
}  // namespace bench
}  // namespace st4ml

int main() {
  namespace fs = std::filesystem;
  using namespace st4ml::bench;
  using st4ml::STRPartitioner;
  using st4ml::TSTRPartitioner;
  const BenchEnv& env = GetBenchEnv();
  const std::string scratch =
      st4ml::GetEnvString("ST4ML_BENCH_DATA", "bench_data") + "/tstr_scratch";
  fs::remove_all(scratch);

  std::printf("== Table 6: T-STR vs 2-d STR ==\n");
  std::printf("%d partitions; companions within (1 km, 15 min)\n\n", kPartitions);

  // A subset keeps the quadratic-ish companion search tractable.
  auto events =
      LoadRecords<st4ml::EventRecord>(env, env.nyc[0], env.nyc_extent, env.nyc_range);
  if (events.size() > 30000) events.resize(30000);
  auto trajs = LoadRecords<st4ml::TrajRecord>(env, env.porto[0],
                                              env.porto_extent, env.porto_range);
  if (trajs.size() > 1200) trajs.resize(1200);

  TablePrinter table({"partitioner", "loading: events", "loading: trajs",
                      "companion: events", "companion: trajs"});

  auto event_ds = st4ml::ParseEvents(st4ml::Dataset<st4ml::EventRecord>::Parallelize(
      env.ctx, events, 16));
  auto traj_ds = st4ml::ParseTrajs(st4ml::Dataset<st4ml::TrajRecord>::Parallelize(
      env.ctx, trajs, 16));

  {
    STRPartitioner str_e(kPartitions), str_t(kPartitions);
    STRPartitioner str_ce(kPartitions), str_ct(kPartitions);
    double load_e = TimeSelections(env, events, &str_e, scratch + "/str_e",
                                   env.nyc_extent, env.nyc_range);
    double load_t = TimeSelections(env, trajs, &str_t, scratch + "/str_t",
                                   env.porto_extent, env.porto_range);
    double comp_e = TimeEventCompanions(event_ds, &str_ce);
    double comp_t = TimeTrajCompanions(traj_ds, &str_ct);
    table.AddRow({"2-d STR", FmtSeconds(load_e), FmtSeconds(load_t),
                  FmtSeconds(comp_e), FmtSeconds(comp_t)});
  }
  {
    int g = 8;  // gt = gs = sqrt(kPartitions)
    TSTRPartitioner tstr_e(g, g), tstr_t(g, g), tstr_ce(g, g), tstr_ct(g, g);
    double load_e = TimeSelections(env, events, &tstr_e, scratch + "/tstr_e",
                                   env.nyc_extent, env.nyc_range);
    double load_t = TimeSelections(env, trajs, &tstr_t, scratch + "/tstr_t",
                                   env.porto_extent, env.porto_range);
    double comp_e = TimeEventCompanions(event_ds, &tstr_ce);
    double comp_t = TimeTrajCompanions(traj_ds, &tstr_ct);
    table.AddRow({"T-STR", FmtSeconds(load_e), FmtSeconds(load_t),
                  FmtSeconds(comp_e), FmtSeconds(comp_t)});
  }
  table.Print();
  fs::remove_all(scratch);
  return 0;
}
