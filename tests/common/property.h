#ifndef ST4ML_TESTS_COMMON_PROPERTY_H_
#define ST4ML_TESTS_COMMON_PROPERTY_H_

// Differential / property-test harness for the dataset cache (ISSUE 5):
// seeded generators produce random ST workloads — records, query ranges,
// ingest layouts, worker counts, cache budgets including 0 and "tiny,
// forces eviction on every insert" — and ExpectIdentical runs the same
// Selection → conversion → extraction pipeline cached and uncached, asserting
// byte-identical collected output and identical non-cache counters. Any
// divergence means the cache changed WHAT was computed, not just how fast.
//
// The harness is deliberately reusable: dataset_cache_test builds targeted
// regressions on the generators, cache_property_test sweeps 50 seeds
// through ExpectIdentical (some with ST4ML-style probabilistic faults armed
// on the stpq/read site so cache reloads exercise the retry path), and the
// integration and bench code reuse the workload staging.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "accel/kernels.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "engine/execution_context.h"
#include "pipeline/pipeline.h"
#include "selection/on_disk_index.h"
#include "selection/selector.h"
#include "storage/records.h"

namespace st4ml {
namespace testing {

/// One randomized workload. `tiny_budget` is sized against the staged file
/// bytes so that it usually cannot hold even one file — every insert
/// evicts, the "thrash" regime the reload path lives in.
struct CacheWorkload {
  uint64_t seed = 0;
  int num_records = 200;
  int grid_t = 2;            // TSTRPartitioner temporal slices
  int grid_s = 2;            // TSTRPartitioner spatial slices per axis
  uint64_t tiny_budget = 256;
  double fault_prob = 0.0;   // > 0 arms stpq/read probabilistically
  int repeats = 2;           // Select calls per run (reuse on repeat)
  /// Kernel backend this workload runs under ("" = widest available).
  /// ExpectIdentical ALWAYS also runs the scalar reference, so every seed
  /// is a scalar-vs-SIMD differential on top of the cache differential.
  std::string backend;
  STBox query;
};

inline std::vector<EventRecord> RandomWorkloadEvents(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<EventRecord> events;
  events.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EventRecord r;
    r.id = i;
    r.x = rng.Uniform(0, 100);
    r.y = rng.Uniform(0, 100);
    r.time = rng.UniformInt(0, 100000);
    r.attr = std::string(static_cast<size_t>(rng.UniformInt(0, 20)), 'a');
    events.push_back(std::move(r));
  }
  return events;
}

inline CacheWorkload RandomCacheWorkload(uint64_t seed) {
  Rng rng(seed * 7919 + 1);
  CacheWorkload w;
  w.seed = seed;
  w.num_records = static_cast<int>(rng.UniformInt(40, 600));
  w.grid_t = static_cast<int>(rng.UniformInt(1, 3));
  w.grid_s = static_cast<int>(rng.UniformInt(1, 3));
  // Mostly thrash-sized; occasionally pathological 1-byte.
  w.tiny_budget = rng.Bernoulli(0.2)
                      ? 1
                      : static_cast<uint64_t>(rng.UniformInt(64, 4096));
  w.fault_prob = seed % 5 == 0 ? 0.1 : 0.0;
  w.repeats = 2;
  // Random compiled-in-and-supported backend, so the seed sweep exercises
  // every dispatch target (on top of ExpectIdentical's scalar reference).
  const auto& available = accel::BackendRegistry::Instance().Available();
  w.backend =
      available[rng.UniformInt(0, static_cast<int64_t>(available.size()) - 1)]
          ->name();
  // A random sub-box; occasionally everything or (nearly) nothing.
  double x1 = rng.Uniform(0, 80), y1 = rng.Uniform(0, 80);
  double x2 = x1 + rng.Uniform(5, 100 - x1), y2 = y1 + rng.Uniform(5, 100 - y1);
  int64_t t1 = rng.UniformInt(0, 60000);
  int64_t t2 = t1 + rng.UniformInt(1000, 100000 - t1);
  if (rng.Bernoulli(0.15)) {  // full-domain query
    x1 = 0; y1 = 0; x2 = 100; y2 = 100; t1 = 0; t2 = 100000;
  } else if (rng.Bernoulli(0.1)) {  // query that misses all data
    x1 = 200; y1 = 200; x2 = 210; y2 = 210;
  }
  w.query = STBox(Mbr(x1, y1, x2, y2), Duration(t1, t2));
  return w;
}

/// Stages one workload's records as an on-disk index in a temp dir; removed
/// on destruction.
class StagedWorkload {
 public:
  explicit StagedWorkload(const CacheWorkload& w) {
    namespace fs = std::filesystem;
    dir_ = (fs::temp_directory_path() /
            ("st4ml_prop_" + std::to_string(w.seed) + "_" +
             std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    meta_ = dir_ + "/index.meta";
    auto ctx = ExecutionContext::Create(2);
    ctx->ConfigureCache({});  // staging never caches
    auto data = Dataset<EventRecord>::Parallelize(
        ctx, RandomWorkloadEvents(w.num_records, w.seed), 4);
    TSTRPartitioner partitioner(w.grid_t, w.grid_s);
    Status built = BuildOnDiskIndex(data, &partitioner, dir_, meta_);
    ST4ML_CHECK(built.ok()) << built.ToString();
  }

  ~StagedWorkload() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  const std::string& dir() const { return dir_; }
  const std::string& meta() const { return meta_; }

 private:
  std::string dir_;
  std::string meta_;
};

/// Appends a byte-exact serialization of `r` — the harness's "Collect() is
/// byte-identical" currency (no temp files, no fault-injection sites).
inline void AppendRecordBytes(std::string* out, const EventRecord& r) {
  auto append = [out](const void* p, size_t n) {
    out->append(static_cast<const char*>(p), n);
  };
  append(&r.id, sizeof(r.id));
  append(&r.x, sizeof(r.x));
  append(&r.y, sizeof(r.y));
  append(&r.time, sizeof(r.time));
  uint32_t len = static_cast<uint32_t>(r.attr.size());
  append(&len, sizeof(len));
  out->append(r.attr);
}

struct PipelineRun {
  Status status;          // first failure, or OK
  std::string output;     // serialized Collect() of every stage output
  MetricsSnapshot metrics;
};

/// Runs the differential pipeline once: `repeats` metadata-pruned Selects
/// over the same query (the selector-cache reuse), then a shuffle and two
/// extractors over its one in-memory result. Every collected record and
/// extracted value is appended to `output` in order, so two runs agree iff
/// their outputs match bytewise.
/// `disk_index` toggles the mmap'd `.stix` plan for cache-less runs (with a
/// cache enabled the planner always prefers it, so the knob is inert there).
inline PipelineRun RunCachePipeline(const CacheWorkload& w,
                                    const StagedWorkload& staged,
                                    uint64_t budget, int workers,
                                    bool disk_index = true) {
  PipelineRun run;
  std::shared_ptr<ExecutionContext> ctx = ExecutionContext::Create(workers);
  DatasetCache::Options cache_options;
  cache_options.budget_bytes = budget;
  // Fault runs re-attempt aggressively (and without backoff, for speed):
  // p = 0.1 over 8 attempts makes a persistent failure vanishingly rare,
  // so the differential comparison never aborts on an injected fault.
  cache_options.retry.max_attempts = 8;
  cache_options.retry.initial_backoff = std::chrono::milliseconds(0);
  ctx->ConfigureCache(std::move(cache_options));

  if (w.fault_prob > 0) {
    GlobalFaultInjector().Reset();
    GlobalFaultInjector().ArmProbabilistic(fault_site::kStpqRead,
                                           w.fault_prob, w.seed);
  }

  SelectorOptions selector_options;
  selector_options.retry.max_attempts = 8;
  selector_options.retry.initial_backoff = std::chrono::milliseconds(0);
  selector_options.use_disk_index = disk_index;

  Pipeline pipeline(ctx, "cache_property");
  Dataset<EventRecord> last;
  for (int r = 0; r < w.repeats; ++r) {
    Selector<EventRecord> selector(ctx, SelectQuery::FromBox(w.query), selector_options);
    auto selected = pipeline.Run("selection", [&] {
      return selector.Select(staged.dir(), staged.meta());
    });
    if (!selected.ok()) {
      run.status = selected.status();
      GlobalFaultInjector().Reset();
      return run;
    }
    for (const EventRecord& rec : selected->Collect()) {
      AppendRecordBytes(&run.output, rec);
    }
    last = *selected;
  }

  // "Conversion": a real shuffle, so the shuffle counters have something to
  // disagree about if the cache ever perturbed record flow.
  auto converted = pipeline.Run(
      "conversion",
      [&](const Dataset<EventRecord>& ds) { return ds.Repartition(3); },
      last);

  // Convert once, extract twice — the paper's many-extractors pattern.
  for (int extractor = 0; extractor < 2; ++extractor) {
    auto sums = pipeline.Run("extraction", [&] {
      struct Acc {
        uint64_t count = 0;
        int64_t id_sum = 0;
        int64_t time_sum = 0;
      };
      return converted.Aggregate(
          Acc{},
          [extractor](Acc acc, const EventRecord& r) {
            ++acc.count;
            acc.id_sum += r.id * (extractor + 1);
            acc.time_sum += r.time;
            return acc;
          },
          [](Acc a, Acc b) {
            a.count += b.count;
            a.id_sum += b.id_sum;
            a.time_sum += b.time_sum;
            return a;
          });
    });
    AppendRecordBytes(&run.output,
                      EventRecord{static_cast<int64_t>(sums.count),
                                  static_cast<double>(sums.id_sum), 0.0,
                                  sums.time_sum, ""});
  }

  GlobalFaultInjector().Reset();
  pipeline.Finish();
  run.status = pipeline.status();
  run.metrics = ctx->MetricsSnapshot();
  return run;
}

/// The counters a correct cache must NOT change: everything about record
/// flow and shuffle volume. Deliberately excluded: the stpq_* I/O family
/// (the cache exists to shrink reads), tasks_retried / faults_injected
/// (fault runs draw differently when reads are skipped), and the cache_*
/// family itself.
inline const std::vector<Counter>& CacheInvariantCounters() {
  static const std::vector<Counter> kCounters = {
      Counter::kShuffleRecords,
      Counter::kShuffleBytes,
      Counter::kBroadcasts,
      Counter::kShuffleRecordsReduceByKey,
      Counter::kShuffleBytesReduceByKey,
      Counter::kShuffleRecordsGroupByKey,
      Counter::kShuffleBytesGroupByKey,
      Counter::kShuffleRecordsRepartition,
      Counter::kShuffleBytesRepartition,
      Counter::kShuffleRecordsStPartition,
      Counter::kShuffleBytesStPartition,
      Counter::kPartitionsPruned,
      Counter::kPartitionsScanned,
      Counter::kSelectionRecordsOut,
      Counter::kSelectionBytesSelected,
      Counter::kConversionRecordsIn,
      Counter::kConversionRecordsOut,
      Counter::kExtractionRecordsIn,
      Counter::kExtractionRecordsOut,
      Counter::kParallelJobs,
      Counter::kChunkClaims,
      Counter::kTasksFailed,
  };
  return kCounters;
}

/// The counters a correct EXECUTOR must not change: record flow, shuffle
/// volume, selection and pruning decisions, task failures. This is
/// CacheInvariantCounters minus the two executor-shape counters:
/// kChunkClaims (the pool sizes chunks from its worker count, so the
/// number of claims tracks the pool, not the data) and kParallelJobs (a
/// one-worker Repartition deals sequentially without opening a job at
/// all — a scheduling choice, not a record-flow difference).
inline std::vector<Counter> ExecutorInvariantCounters() {
  std::vector<Counter> counters = CacheInvariantCounters();
  for (Counter shape : {Counter::kChunkClaims, Counter::kParallelJobs}) {
    counters.erase(std::find(counters.begin(), counters.end(), shape));
  }
  return counters;
}

/// Forces a kernel backend for a scope; restores the automatic choice (env
/// override, else widest ISA) on exit — including early GTest ASSERT
/// returns, so one failing seed can't leak a forced backend into the next.
class ScopedBackend {
 public:
  explicit ScopedBackend(const std::string& name) {
    Status status = accel::BackendRegistry::Instance().ForceBackend(name);
    ST4ML_CHECK(status.ok()) << status.ToString();
  }
  ~ScopedBackend() { accel::BackendRegistry::Instance().ForceBackend(""); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;
};

/// Runs `w` uncached (budget 0) and cached (budgets {0, tiny, unbounded})
/// at worker counts {1, 8}, under the scalar backend and then under the
/// workload's backend (when different), asserting:
///  - every run's output is byte-identical to the single-worker uncached
///    SCALAR reference (cache, worker-count AND backend invariance — cold
///    and warm paths both go through the kernels, so this is the
///    scalar-vs-SIMD differential the accel contract promises), and
///  - each cached run's invariant counters equal the uncached run's at the
///    SAME worker count and backend (executor-shape counters legitimately
///    vary with workers... but not with caching or with the backend), and
///  - the 8-worker uncached run agrees with the 1-worker one on every
///    ExecutorInvariantCounters() slot (the executor differential).
inline void ExpectIdentical(const CacheWorkload& w) {
  StagedWorkload staged(w);
  const uint64_t budgets[] = {0, w.tiny_budget, DatasetCache::kUnbounded};
  std::vector<std::string> backends = {"scalar"};
  std::string alt =
      w.backend.empty()
          ? accel::BackendRegistry::Instance().Available().back()->name()
          : w.backend;
  if (alt != "scalar") backends.push_back(alt);
  std::string reference;
  bool have_reference = false;
  for (const std::string& backend : backends) {
    ScopedBackend forced(backend);
    MetricsSnapshot one_worker;
    for (int workers : {1, 8}) {
      // The reference run is linear-scan (disk index off): the seed path
      // every other plan must reproduce byte for byte.
      PipelineRun uncached = RunCachePipeline(w, staged, 0, workers,
                                              /*disk_index=*/false);
      ASSERT_TRUE(uncached.status.ok())
          << "seed " << w.seed << " uncached workers " << workers
          << " backend " << backend << ": " << uncached.status.ToString();
      if (!have_reference) {
        reference = uncached.output;
        have_reference = true;
      }
      EXPECT_EQ(uncached.output, reference)
          << "seed " << w.seed << ": uncached output varies with workers="
          << workers << " backend=" << backend;
      if (workers == 1) {
        one_worker = uncached.metrics;
      } else {
        for (Counter c : ExecutorInvariantCounters()) {
          EXPECT_EQ(uncached.metrics[c], one_worker[c])
              << "seed " << w.seed << ": counter " << CounterName(c)
              << " varies with workers=" << workers << " backend "
              << backend;
        }
      }
      // Disk-index differential: the same cache-less run served through the
      // mmap'd .stix sidecars must agree bytewise AND keep every record-flow
      // counter (only the I/O-shape counters may change — exactly the
      // index's job).
      PipelineRun mmapped = RunCachePipeline(w, staged, 0, workers,
                                             /*disk_index=*/true);
      ASSERT_TRUE(mmapped.status.ok())
          << "seed " << w.seed << " disk-index workers " << workers
          << " backend " << backend << ": " << mmapped.status.ToString();
      EXPECT_EQ(mmapped.output, reference)
          << "seed " << w.seed << ": disk-index output diverged at workers "
          << workers << " backend " << backend;
      for (Counter c : CacheInvariantCounters()) {
        EXPECT_EQ(mmapped.metrics[c], uncached.metrics[c])
            << "seed " << w.seed << ": counter " << CounterName(c)
            << " diverged with the disk index at workers " << workers
            << " backend " << backend;
      }
      for (uint64_t budget : budgets) {
        PipelineRun cached = RunCachePipeline(w, staged, budget, workers);
        ASSERT_TRUE(cached.status.ok())
            << "seed " << w.seed << " budget " << budget << " workers "
            << workers << " backend " << backend << ": "
            << cached.status.ToString();
        EXPECT_EQ(cached.output, reference)
            << "seed " << w.seed << ": cached output diverged at budget "
            << budget << " workers " << workers << " backend " << backend;
        for (Counter c : CacheInvariantCounters()) {
          EXPECT_EQ(cached.metrics[c], uncached.metrics[c])
              << "seed " << w.seed << ": counter " << CounterName(c)
              << " diverged at budget " << budget << " workers " << workers
              << " backend " << backend;
        }
      }
    }
  }
}

}  // namespace testing
}  // namespace st4ml

#endif  // ST4ML_TESTS_COMMON_PROPERTY_H_
