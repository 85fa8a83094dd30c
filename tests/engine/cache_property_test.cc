// Differential property test for the dataset cache (ISSUE 5): 50 seeded
// random workloads, each run uncached and cached at budgets {0, tiny,
// unbounded} and worker counts {1, 8}, must produce byte-identical
// Collect() output and identical non-cache counters. Seeds divisible by 5
// run with probabilistic faults armed on the stpq/read site, so cache
// reloads and cache-miss re-reads exercise the retry path mid-comparison.
// Since ISSUE 7 every seed also draws a random kernel backend and
// ExpectIdentical replays the whole grid under scalar AND that backend
// (same effect as randomizing ST4ML_BACKEND, but deterministic per seed),
// so the sweep doubles as the scalar-vs-SIMD differential on the real
// cold and warm selection paths. The 8-worker runs must also agree with
// the 1-worker runs on every executor-invariant counter (record flow,
// shuffle volume, pruning, failures), which makes it the executor
// differential too.
//
// Every seed also runs the shaping leg (ExpectShapingIdentical): over a
// duplicate-id staging of the same workload, count_only, limits and id
// predicates must give the same rows, match counts and record-flow
// counters on the scan, mmap and cached plans.
//
// The sweep is sharded into ranges of 10 so a regression names a small
// seed set instead of one 50-seed monolith.

#include "common/property.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace st4ml {
namespace testing {
namespace {

void SweepSeeds(uint64_t begin, uint64_t end) {
  for (uint64_t seed = begin; seed < end; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectIdentical(RandomCacheWorkload(seed));
    if (::testing::Test::HasFatalFailure()) return;
    ExpectShapingIdentical(RandomCacheWorkload(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CachePropertyTest, Seeds00Through09) { SweepSeeds(0, 10); }
TEST(CachePropertyTest, Seeds10Through19) { SweepSeeds(10, 20); }
TEST(CachePropertyTest, Seeds20Through29) { SweepSeeds(20, 30); }
TEST(CachePropertyTest, Seeds30Through39) { SweepSeeds(30, 40); }
TEST(CachePropertyTest, Seeds40Through49) { SweepSeeds(40, 50); }

// The generator must actually cover the regimes the sweep claims to test:
// fault-armed seeds, empty-result queries, full-domain queries, and
// pathological 1-byte budgets all appear within the 50 seeds.
TEST(CachePropertyTest, GeneratorCoversTheInterestingRegimes) {
  int faulty = 0, one_byte_budgets = 0, non_scalar_backends = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    CacheWorkload w = RandomCacheWorkload(seed);
    if (w.fault_prob > 0) ++faulty;
    if (w.tiny_budget == 1) ++one_byte_budgets;
    if (w.backend != "scalar") ++non_scalar_backends;
    EXPECT_NE(accel::BackendRegistry::Instance().Find(w.backend), nullptr)
        << "seed " << seed << " drew unavailable backend " << w.backend;
    EXPECT_GE(w.num_records, 1) << "seed " << seed;
    EXPECT_GE(w.repeats, 2) << "reuse needs at least two Selects";
  }
  EXPECT_GE(faulty, 5);
  EXPECT_GE(one_byte_budgets, 1);
  // When the CPU has AVX2 the draw is from {scalar, avx2}, and the sweep
  // must actually run avx2, not just draw scalar 50 times.
  if (accel::BackendRegistry::Instance().Available().size() > 1) {
    EXPECT_GE(non_scalar_backends, 10);
  }
}

// The shaping leg must see what it claims to: limits that trim, ids that
// repeat inside one file, and requested ids that are absent.
TEST(CachePropertyTest, ShapingLegCoversItsRegimes) {
  int trimmed = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const CacheWorkload w = RandomCacheWorkload(seed);
    const std::vector<EventRecord> events =
        RandomWorkloadEvents(w.num_records, w.seed, /*duplicate_ids=*/true);
    size_t matches = 0;
    for (const EventRecord& r : events) {
      matches += r.ComputeSTBox().Intersects(w.query) ? 1 : 0;
    }
    if (matches > 7) ++trimmed;
    // Records 2 and 3 share id, position and time, so one T-STR part
    // holds both, and the mixed id query asks for that id.
    ASSERT_GT(events.size(), 3u);
    EXPECT_EQ(events[3].id, events[2].id);
    EXPECT_EQ(events[3].x, events[2].x);
    EXPECT_EQ(events[3].y, events[2].y);
    EXPECT_EQ(events[3].time, events[2].time);
    const std::vector<SelectQuery> queries = ShapingQueries(w);
    ASSERT_EQ(queries.size(), 9u);
    const SelectQuery& mixed = queries[5];
    EXPECT_TRUE(mixed.MatchesId(events[3].id));
    const bool absent_asked = std::none_of(
        events.begin(), events.end(),
        [&](const EventRecord& r) { return r.id == mixed.ids.front(); });
    EXPECT_TRUE(absent_asked);
    EXPECT_TRUE(queries[6].has_ids && queries[6].ids.empty());
  }
  EXPECT_GE(trimmed, 25);
}

// The invariant list must be CacheInvariantCounters minus exactly the one
// executor-shape counter — if someone adds a counter to one list and
// forgets the other, the executor differential silently weakens.
TEST(CachePropertyTest, InvariantCountersTrackCacheList) {
  std::vector<Counter> expected = CacheInvariantCounters();
  expected.erase(
      std::find(expected.begin(), expected.end(), Counter::kChunkClaims));
  EXPECT_EQ(ExecutorInvariantCounters(), expected);
  EXPECT_EQ(ExecutorInvariantCounters().size(),
            CacheInvariantCounters().size() - 1);
  // The list still polices the counters that would catch a lost or
  // double-counted partition, and the parallel jobs a stage opens.
  const std::vector<Counter> inv = ExecutorInvariantCounters();
  for (Counter c : {Counter::kSelectionRecordsOut, Counter::kShuffleRecords,
                    Counter::kTasksFailed, Counter::kParallelJobs}) {
    EXPECT_NE(std::find(inv.begin(), inv.end(), c), inv.end())
        << CounterName(c);
  }
}

}  // namespace
}  // namespace testing
}  // namespace st4ml
