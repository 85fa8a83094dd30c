// Session/Job API tests: one warm Session shared by many Jobs, each Job
// keeping an EXACT private copy of every counter delta it causes — even when
// jobs run concurrently from different threads on the shared worker pool —
// plus the failed-job-then-fresh-job contract and a TSan-friendly stress
// over the whole stack (jobs + cache + tracer).

#include <array>
#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/property.h"
#include "pipeline/session.h"
#include "selection/selector.h"

namespace st4ml {
namespace {

testing::CacheWorkload FullDomainWorkload(uint64_t seed, int num_records) {
  testing::CacheWorkload w;
  w.seed = seed;
  w.num_records = num_records;
  w.grid_t = 2;
  w.grid_s = 2;
  w.query = STBox(Mbr(0, 0, 100, 100), Duration(0, 100000));
  return w;
}

// Eight threads, one shared Session: each thread runs one Job over a
// DIFFERENT amount of conversion work. If per-job counter attribution ever
// leaked between concurrent jobs (a sibling's worker chunk landing in the
// wrong registry), the exact-equality assertions below would catch it.
TEST(SessionTest, ConcurrentJobsKeepExactPerJobCounters) {
  Session session(ExecutionContext::Create(4));
  constexpr int kJobs = 8;
  std::array<MetricsSnapshot, kJobs> per_job;
  std::array<uint64_t, kJobs> expected{};
  std::vector<std::thread> threads;
  threads.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    expected[i] = 100 * static_cast<uint64_t>(i + 1);
    threads.emplace_back([&, i] {
      Job job = session.StartJob("iso/" + std::to_string(i));
      std::vector<int> values(expected[i], i);
      auto ds = Dataset<int>::Parallelize(session.context(),
                                          std::move(values), 8);
      auto mapped = job.Run(
          "conversion",
          [](const Dataset<int>& in) {
            return in.Map([](const int& v) { return v + 1; });
          },
          ds);
      // Force engine-parallel work so worker threads must re-install this
      // job's counter sink (the cross-thread attribution under test).
      ASSERT_EQ(mapped.Collect().size(), expected[i]);
      job.Finish();
      per_job[i] = job.Metrics();
    });
  }
  for (auto& t : threads) t.join();

  uint64_t total_in = 0;
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(per_job[i][Counter::kConversionRecordsIn], expected[i])
        << "job " << i << " saw a sibling's conversion records";
    EXPECT_EQ(per_job[i][Counter::kConversionRecordsOut], expected[i])
        << "job " << i;
    EXPECT_GT(per_job[i][Counter::kParallelJobs], 0u)
        << "job " << i << " ran no parallel work — the test proved nothing";
    total_in += per_job[i][Counter::kConversionRecordsIn];
  }
  // The session totals are exactly the sum of the per-job deltas: counters
  // are copied to the job registry, never moved out of the session's.
  EXPECT_EQ(session.Metrics()[Counter::kConversionRecordsIn], total_in);
  EXPECT_EQ(session.jobs_started(), static_cast<uint64_t>(kJobs));
}

// A Job whose stage failed latches the error (ok() stays false, the status
// names the stage), and the failure stays with that Job: the next Job on the
// SAME Session, over the same staged data, produces the records a healthy
// job sees — the daemon's one-Job-per-request contract.
TEST(SessionTest, FailedJobDoesNotPoisonTheNextJob) {
  testing::CacheWorkload w = FullDomainWorkload(91, 300);
  testing::StagedWorkload staged(w);
  Session session(ExecutionContext::Create(2));

  // Reference: a healthy job on this session.
  uint64_t reference_count = 0;
  {
    Job job = session.StartJob("reference");
    Selector<EventRecord> selector(session.context(), SelectQuery::FromBox(w.query));
    auto selected = job.Run(
        "selection", [&] { return selector.Select(staged.dir(), staged.meta()); });
    ASSERT_TRUE(selected.ok()) << selected.status().ToString();
    reference_count = selected->Count();
    ASSERT_GT(reference_count, 0u);
  }

  {
    Job failed = session.StartJob("fail");
    Selector<EventRecord> selector(session.context(), SelectQuery::FromBox(w.query));
    auto missing = failed.Run("selection", [&] {
      return selector.Select(staged.dir() + "/missing",
                             staged.meta() + ".missing");
    });
    ASSERT_FALSE(missing.ok());
    // A later stage that succeeds does not clear the latch.
    failed.Run("extraction", [] { return Status::Ok(); });
    failed.Finish();
    EXPECT_FALSE(failed.ok());
    // The latched status names the failing stage.
    EXPECT_NE(failed.status().message().find("stage selection"),
              std::string::npos)
        << failed.status().ToString();
  }

  Job job = session.StartJob("after-failure");
  EXPECT_TRUE(job.ok()) << "a fresh Job must not inherit a failure";
  Selector<EventRecord> selector(session.context(), SelectQuery::FromBox(w.query));
  auto selected = job.Run(
      "selection", [&] { return selector.Select(staged.dir(), staged.meta()); });
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  EXPECT_EQ(selected->Count(), reference_count);
  EXPECT_TRUE(job.ok());
  job.Finish();
}

// With a tracer attached, every span a job produces nests under that job's
// kJob root: job → stage → operation → task. Concurrent daemon jobs rely on
// this to keep their span trees disjoint.
TEST(SessionTest, JobSpansNestUnderJobRoot) {
  ToolOptions options;
  options.trace_path =
      (std::filesystem::temp_directory_path() / "st4ml_session_span.json")
          .string();
  options.num_workers = 2;
  Session session(options);
  ASSERT_NE(session.tracer(), nullptr);
  {
    Job job = session.StartJob("traced-job");
    job.Run("stage_a", [&] {
      return Dataset<int>::Parallelize(session.context(),
                                       std::vector<int>(64, 1), 8)
          .Map([](const int& v) { return v + 1; });
    });
    job.Finish();
  }

  // Depth of each span via parent links; categories must layer
  // job(0) → stage(1) → operation(2) → task(3).
  auto spans = session.tracer()->Spans();
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  std::function<int(uint64_t)> depth_of = [&](uint64_t id) -> int {
    uint64_t parent = by_id.at(id)->parent;
    return parent == 0 ? 0 : depth_of(parent) + 1;
  };
  std::map<std::string, int> count_by_cat;
  for (const SpanRecord& s : spans) {
    std::string cat = s.category;
    ++count_by_cat[cat];
    int depth = depth_of(s.id);
    if (cat == span_category::kJob) {
      EXPECT_EQ(s.name, "traced-job");
      EXPECT_EQ(depth, 0) << "job spans are roots";
    } else if (cat == span_category::kStage) {
      EXPECT_EQ(s.name, "stage_a");
      EXPECT_EQ(depth, 1) << "stage not parented under the job";
    } else if (cat == span_category::kOperation) {
      EXPECT_EQ(depth, 2) << s.name;
    } else if (cat == span_category::kTask) {
      EXPECT_EQ(depth, 3) << s.name;
    }
  }
  EXPECT_EQ(count_by_cat[span_category::kJob], 1);
  EXPECT_EQ(count_by_cat[span_category::kStage], 1);
  EXPECT_GE(count_by_cat[span_category::kOperation], 1);
  EXPECT_GE(count_by_cat[span_category::kTask], 1);
  EXPECT_EQ(count_by_cat.size(), 4u) << "no span outside job/stage/op/task";
  std::filesystem::remove(options.trace_path);
}

// Stress for TSan: 8 threads x 4 jobs each against ONE Session with the
// cache enabled and a tracer attached — every moving part of the daemon's
// request path (job registry install/uninstall, cache hits, span recording,
// shared worker pool) racing at once. Each job still asserts its OWN
// selection_records_out, so this doubles as isolation-under-load.
TEST(SessionTest, ConcurrentJobStressWithSharedCache) {
  testing::CacheWorkload w = FullDomainWorkload(17, 250);
  testing::StagedWorkload staged(w);

  ToolOptions options;
  options.has_cache_budget = true;
  options.cache_budget_bytes = -1;  // unbounded — the daemon default
  options.num_workers = 4;
  options.trace_path =
      (std::filesystem::temp_directory_path() / "st4ml_session_stress.json")
          .string();
  Session session(options);

  // Warm-up job: establishes the reference count and primes the cache.
  uint64_t reference = 0;
  {
    Job job = session.StartJob("warmup");
    Selector<EventRecord> selector(session.context(), SelectQuery::FromBox(w.query));
    auto selected = job.Run(
        "selection", [&] { return selector.Select(staged.dir(), staged.meta()); });
    ASSERT_TRUE(selected.ok()) << selected.status().ToString();
    job.Finish();
    reference = job.Metrics()[Counter::kSelectionRecordsOut];
    ASSERT_GT(reference, 0u);
  }

  constexpr int kThreads = 8;
  constexpr int kJobsPerThread = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        Job job = session.StartJob("stress/" + std::to_string(t) + "/" +
                                   std::to_string(j));
        Selector<EventRecord> selector(session.context(), SelectQuery::FromBox(w.query));
        auto selected = job.Run("selection", [&] {
          return selector.Select(staged.dir(), staged.meta());
        });
        if (!selected.ok()) {
          ++failures;
          continue;
        }
        auto repartitioned = job.Run(
            "conversion",
            [](const Dataset<EventRecord>& ds) { return ds.Repartition(3); },
            *selected);
        if (repartitioned.Count() == 0) ++failures;
        job.Finish();
        if (!job.ok() ||
            job.Metrics()[Counter::kSelectionRecordsOut] != reference) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The warm cache actually served the stress jobs.
  EXPECT_GT(session.Metrics()[Counter::kCacheHits], 0u);
  std::filesystem::remove(options.trace_path);
}

}  // namespace
}  // namespace st4ml
