// DatasetCache unit tests: LRU eviction order, the zero-budget pass-through,
// immediate spill of partitions larger than the budget, spill → reload
// byte equality, origin-backed entries, concurrent access from RunParallel
// workers, and reloads racing Gets, Puts and drops of the same cache
// (exercised under TSan in CI).

#include "engine/dataset_cache.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/property.h"
#include "engine/cached_dataset.h"
#include "engine/execution_context.h"
#include "storage/records.h"
#include "storage/stpq.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

bool SameRecords(const std::vector<EventRecord>& a,
                 const std::vector<EventRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].x != b[i].x || a[i].y != b[i].y ||
        a[i].time != b[i].time || a[i].attr != b[i].attr) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<const std::vector<EventRecord>> MakePartition(int n,
                                                              uint64_t seed) {
  return std::make_shared<const std::vector<EventRecord>>(
      testing::RandomWorkloadEvents(n, seed));
}

const std::vector<EventRecord>& AsRecords(
    const std::shared_ptr<const void>& data) {
  return *std::static_pointer_cast<const std::vector<EventRecord>>(data);
}

class DatasetCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scratch_ = (fs::temp_directory_path() /
                ("st4ml_cache_test_" + std::to_string(::getpid())))
                   .string();
    fs::remove_all(scratch_);
  }
  void TearDown() override { fs::remove_all(scratch_); }

  DatasetCache::Options OptionsWithBudget(uint64_t budget) {
    DatasetCache::Options options;
    options.budget_bytes = budget;
    options.scratch_dir = scratch_;
    return options;
  }

  std::string scratch_;
  CounterRegistry counters_;
};

// Entries without a spill function or origin are erased on eviction, which
// makes the eviction ORDER directly observable as Get misses.
TEST_F(DatasetCacheTest, EvictsLeastRecentlyUsedFirst) {
  auto part = MakePartition(8, 1);
  const uint64_t bytes = cache_internal::StpqPartitionBytes(*part);
  DatasetCache cache(OptionsWithBudget(2 * bytes), &counters_);
  const uint64_t ds = cache.NewDatasetId();
  cache.Put(ds, 0, part, bytes, nullptr, nullptr);
  cache.Put(ds, 1, part, bytes, nullptr, nullptr);
  // Touch partition 0 so partition 1 becomes the LRU victim.
  ASSERT_NE(*cache.Get(ds, 0), nullptr);
  cache.Put(ds, 2, part, bytes, nullptr, nullptr);

  EXPECT_EQ(*cache.Get(ds, 1), nullptr) << "LRU entry should have been evicted";
  EXPECT_NE(*cache.Get(ds, 0), nullptr);
  EXPECT_NE(*cache.Get(ds, 2), nullptr);
  DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_LE(stats.resident_bytes, 2 * bytes);
}

TEST_F(DatasetCacheTest, ZeroBudgetIsInertPassThrough) {
  DatasetCache cache(OptionsWithBudget(0), &counters_);
  EXPECT_FALSE(cache.enabled());
  auto part = MakePartition(4, 2);
  const uint64_t ds = cache.NewDatasetId();
  cache.Put(ds, 0, part, cache_internal::StpqPartitionBytes(*part),
            &cache_internal::SpillPartition<EventRecord>,
            &cache_internal::ReloadPartition<EventRecord>);
  auto got = cache.Get(ds, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, nullptr);
  DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(counters_.Snapshot()[Counter::kCacheMisses], 0u);
  EXPECT_FALSE(fs::exists(scratch_));
}

// A partition larger than the whole budget cannot stay resident: it is
// spilled to the scratch dir on insert and transparently reloaded on Get.
TEST_F(DatasetCacheTest, OversizedPartitionSpillsImmediately) {
  auto part = MakePartition(32, 3);
  const uint64_t bytes = cache_internal::StpqPartitionBytes(*part);
  DatasetCache cache(OptionsWithBudget(bytes / 2), &counters_);
  const uint64_t ds = cache.NewDatasetId();
  cache.Put(ds, 0, part, bytes, &cache_internal::SpillPartition<EventRecord>,
            &cache_internal::ReloadPartition<EventRecord>);

  DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.spilled_entries, 1u);
  EXPECT_EQ(stats.spill_bytes, bytes);
  ASSERT_TRUE(fs::exists(scratch_));
  EXPECT_FALSE(fs::is_empty(scratch_));

  auto got = cache.Get(ds, 0);
  ASSERT_TRUE(got.ok());
  ASSERT_NE(*got, nullptr);
  EXPECT_TRUE(SameRecords(AsRecords(*got), *part));
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.reload_bytes, bytes);
}

// Spill + reload round-trips the records bit-for-bit, and the engine
// counters mirror the cache's own stats.
TEST_F(DatasetCacheTest, SpillReloadRoundTripsExactBytes) {
  auto part_a = MakePartition(16, 4);
  auto part_b = MakePartition(16, 5);
  const uint64_t bytes = cache_internal::StpqPartitionBytes(*part_a);
  DatasetCache cache(OptionsWithBudget(bytes + bytes / 2), &counters_);
  const uint64_t ds = cache.NewDatasetId();
  cache.Put(ds, 0, part_a, bytes,
            &cache_internal::SpillPartition<EventRecord>,
            &cache_internal::ReloadPartition<EventRecord>);
  cache.Put(ds, 1, part_b, cache_internal::StpqPartitionBytes(*part_b),
            &cache_internal::SpillPartition<EventRecord>,
            &cache_internal::ReloadPartition<EventRecord>);
  ASSERT_EQ(cache.stats().spilled_entries, 1u);

  auto got = cache.Get(ds, 0);  // the spilled one
  ASSERT_TRUE(got.ok());
  ASSERT_NE(*got, nullptr);
  EXPECT_TRUE(SameRecords(AsRecords(*got), *part_a));

  MetricsSnapshot metrics = counters_.Snapshot();
  DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(metrics[Counter::kCacheHits], stats.hits);
  EXPECT_EQ(metrics[Counter::kCacheEvictions], stats.evictions);
  EXPECT_EQ(metrics[Counter::kCacheSpillBytes], stats.spill_bytes);
  EXPECT_EQ(metrics[Counter::kCacheReloadBytes], stats.reload_bytes);
}

// PutWithOrigin entries never write scratch files: eviction just drops the
// memory and Get re-reads the durable origin file.
TEST_F(DatasetCacheTest, OriginBackedEntryReloadsWithoutSpilling) {
  auto part = MakePartition(12, 6);
  const uint64_t bytes = cache_internal::StpqPartitionBytes(*part);
  fs::create_directories(scratch_);
  const std::string origin = scratch_ + "/origin.stpq";
  ASSERT_TRUE(WriteStpqFile(origin, *part, nullptr).ok());

  DatasetCache cache(OptionsWithBudget(bytes / 2), &counters_);
  const uint64_t ds = cache.InternDatasetId("stpq:" + origin);
  EXPECT_EQ(ds, cache.InternDatasetId("stpq:" + origin)) << "ids are stable";
  cache.PutWithOrigin(ds, 0, part, bytes, origin,
                      &cache_internal::ReloadPartition<EventRecord>);

  DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(stats.spill_bytes, 0u) << "origin-backed eviction writes nothing";
  auto got = cache.Get(ds, 0);
  ASSERT_TRUE(got.ok());
  ASSERT_NE(*got, nullptr);
  EXPECT_TRUE(SameRecords(AsRecords(*got), *part));
  EXPECT_GT(cache.stats().reload_bytes, 0u);
  EXPECT_TRUE(fs::exists(origin)) << "origin files are never deleted";
}

TEST_F(DatasetCacheTest, DropDatasetRemovesEntriesAndSpillFiles) {
  auto part = MakePartition(16, 7);
  const uint64_t bytes = cache_internal::StpqPartitionBytes(*part);
  DatasetCache cache(OptionsWithBudget(bytes / 2), &counters_);
  const uint64_t ds = cache.NewDatasetId();
  cache.Put(ds, 0, part, bytes, &cache_internal::SpillPartition<EventRecord>,
            &cache_internal::ReloadPartition<EventRecord>);
  ASSERT_TRUE(fs::exists(scratch_));
  ASSERT_FALSE(fs::is_empty(scratch_));

  cache.DropDataset(ds);
  EXPECT_TRUE(fs::is_empty(scratch_)) << "spill files deleted with the entry";
  auto got = cache.Get(ds, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, nullptr);
}

// Many RunParallel workers hammer one budget-starved cache: every Get must
// return either the exact records that were Put or a clean miss. TSan runs
// this in CI to pin the locking discipline.
TEST_F(DatasetCacheTest, ConcurrentPutGetFromWorkers) {
  constexpr size_t kTasks = 64;
  auto ctx = ExecutionContext::Create(8);
  DatasetCache::Options options = OptionsWithBudget(4096);
  ctx->ConfigureCache(std::move(options));
  DatasetCache& cache = ctx->cache();
  const uint64_t ds = cache.NewDatasetId();

  Status status = ctx->TryRunParallel(
      "cache_stress", kTasks, [&](size_t i) -> Status {
        auto mine = MakePartition(4 + static_cast<int>(i % 13), i);
        cache.Put(ds, i, mine, cache_internal::StpqPartitionBytes(*mine),
                  &cache_internal::SpillPartition<EventRecord>,
                  &cache_internal::ReloadPartition<EventRecord>);
        // Read back my partition and a neighbor's (which may or may not be
        // inserted yet — a miss is fine, wrong bytes are not).
        for (uint64_t key : {static_cast<uint64_t>(i), (i + 7) % kTasks}) {
          auto got = cache.Get(ds, key);
          if (!got.ok()) return got.status();
          if (*got == nullptr) continue;
          auto expect = MakePartition(4 + static_cast<int>(key % 13), key);
          if (!SameRecords(AsRecords(*got), *expect)) {
            return Status::Internal("cache returned wrong partition bytes");
          }
        }
        return Status::Ok();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();

  // After the storm every partition is still retrievable and intact.
  for (size_t i = 0; i < kTasks; ++i) {
    auto got = cache.Get(ds, i);
    ASSERT_TRUE(got.ok());
    ASSERT_NE(*got, nullptr) << "partition " << i;
    auto expect = MakePartition(4 + static_cast<int>(i % 13), i);
    EXPECT_TRUE(SameRecords(AsRecords(*got), *expect)) << "partition " << i;
  }
}

// CachedDataset end-to-end: persist under a thrash-sized budget, then Load
// twice — both loads collect the original records exactly.
TEST_F(DatasetCacheTest, CachedDatasetSurvivesEvictionChurn) {
  auto ctx = ExecutionContext::Create(4);
  ctx->ConfigureCache(OptionsWithBudget(512));
  auto events = testing::RandomWorkloadEvents(200, 11);
  auto ds = Dataset<EventRecord>::Parallelize(ctx, events, 8);
  CachedDataset<EventRecord> cached = ds.Persist();
  for (int pass = 0; pass < 2; ++pass) {
    auto loaded = cached.Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(SameRecords(loaded->Collect(), events)) << "pass " << pass;
  }
  EXPECT_GT(ctx->MetricsSnapshot()[Counter::kCacheEvictions], 0u);
  cached.Unpersist();
  auto after_drop = cached.Load();
  EXPECT_FALSE(after_drop.ok()) << "unpersisted dataset must not load";
}

TEST_F(DatasetCacheTest, CachedDatasetPassThroughWhenDisabled) {
  auto ctx = ExecutionContext::Create(4);
  ctx->ConfigureCache(OptionsWithBudget(0));
  auto events = testing::RandomWorkloadEvents(50, 12);
  auto ds = Dataset<EventRecord>::Parallelize(ctx, events, 4);
  CachedDataset<EventRecord> cached = ds.Persist();
  auto loaded = cached.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(SameRecords(loaded->Collect(), events));
  MetricsSnapshot metrics = ctx->MetricsSnapshot();
  EXPECT_EQ(metrics[Counter::kCacheHits], 0u);
  EXPECT_EQ(metrics[Counter::kCacheMisses], 0u);
  EXPECT_EQ(metrics[Counter::kCacheEvictions], 0u);
}

// ---- reloads run outside the cache lock: a reload fn that counts its calls
// and blocks on a gate holds one reload in flight while the test races
// other cache calls against it.

class GatedReload {
 public:
  DatasetCache::ReloadFn Fn() {
    return [this](const std::string& path, uint64_t* io_bytes) {
      calls_.fetch_add(1);
      gate_.wait();
      return cache_internal::ReloadPartition<EventRecord>(path, io_bytes);
    };
  }
  int calls() const { return calls_.load(); }
  /// Spins until `n` reloads have entered the fn (a 10 s cap keeps a broken
  /// cache from hanging the suite; the callers' assertions then fail).
  void AwaitCalls(int n) const {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (calls_.load() < n && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
  void Open() { gate_.count_down(); }

 private:
  std::atomic<int> calls_{0};
  std::latch gate_{1};
};

// Runs `fn` while `gated` holds a reload in flight and reports whether it
// finished without the reload being released; the gate opens either way so
// a cache that blocks fn cannot hang the test.
bool CompletesDuringReload(GatedReload* gated, std::function<void()> fn) {
  auto done = std::async(std::launch::async, std::move(fn));
  bool completed =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  gated->Open();
  done.wait();
  return completed;
}

class CacheReloadRaceTest : public DatasetCacheTest {
 protected:
  // Two origin-backed partitions under a budget that holds only one, so
  // partition 0 is evicted (reloadable) and partition 1 resident; partition
  // 0 reloads through `gated_`.
  std::unique_ptr<DatasetCache> MakeCacheWithEvictedKey() {
    part_ = MakePartition(24, 21);
    bytes_ = cache_internal::StpqPartitionBytes(*part_);
    fs::create_directories(scratch_);
    origin_ = scratch_ + "/origin.stpq";
    EXPECT_TRUE(WriteStpqFile(origin_, *part_, nullptr).ok());
    DatasetCache::Options options = OptionsWithBudget(bytes_ + bytes_ / 2);
    options.retry.initial_backoff = std::chrono::milliseconds(0);
    auto cache = std::make_unique<DatasetCache>(options, &counters_);
    ds_ = cache->NewDatasetId();
    cache->PutWithOrigin(ds_, 0, part_, bytes_, origin_, gated_.Fn());
    cache->PutWithOrigin(ds_, 1, part_, bytes_, origin_,
                         &cache_internal::ReloadPartition<EventRecord>);
    DatasetCache::Stats stats = cache->stats();
    EXPECT_EQ(stats.resident_entries, 1u);
    EXPECT_EQ(stats.spilled_entries, 1u);
    return cache;
  }

  GatedReload gated_;
  std::shared_ptr<const std::vector<EventRecord>> part_;
  uint64_t bytes_ = 0;
  std::string origin_;
  uint64_t ds_ = 0;
};

// Eight concurrent Gets of one evicted key share a single reload: the
// others wait for it and count as hits on the re-admitted data.
TEST_F(CacheReloadRaceTest, ConcurrentGetsOfOneKeyReloadOnce) {
  auto cache = MakeCacheWithEvictedKey();
  const uint64_t hits_before = cache->stats().hits;
  const uint64_t counter_hits_before = counters_.Snapshot()[Counter::kCacheHits];

  constexpr int kWorkers = 8;
  std::vector<StatusOr<std::shared_ptr<const void>>> got(
      kWorkers, std::shared_ptr<const void>());
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] { got[w] = cache->Get(ds_, 0); });
  }
  gated_.AwaitCalls(1);
  // Give the other workers time to queue behind the in-flight reload.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gated_.Open();
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(gated_.calls(), 1) << "one reload per key";
  for (int w = 0; w < kWorkers; ++w) {
    ASSERT_TRUE(got[w].ok()) << got[w].status().ToString();
    ASSERT_NE(*got[w], nullptr) << "worker " << w;
    EXPECT_EQ(*got[w], *got[0]) << "worker " << w << " got another copy";
  }
  EXPECT_TRUE(SameRecords(AsRecords(*got[0]), *part_));
  DatasetCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.hits - hits_before, uint64_t{kWorkers});
  EXPECT_EQ(counters_.Snapshot()[Counter::kCacheHits] - counter_hits_before,
            uint64_t{kWorkers});
  EXPECT_EQ(stats.reload_bytes, FileSizeBytes(origin_));
}

TEST_F(CacheReloadRaceTest, ResidentGetDoesNotWaitForAnotherKeysReload) {
  auto cache = MakeCacheWithEvictedKey();
  StatusOr<std::shared_ptr<const void>> reloaded = std::shared_ptr<const void>();
  std::thread loader([&] { reloaded = cache->Get(ds_, 0); });
  gated_.AwaitCalls(1);

  StatusOr<std::shared_ptr<const void>> resident = std::shared_ptr<const void>();
  EXPECT_TRUE(CompletesDuringReload(
      &gated_, [&] { resident = cache->Get(ds_, 1); }))
      << "a resident hit waited behind another key's reload";
  loader.join();
  ASSERT_TRUE(resident.ok());
  ASSERT_NE(*resident, nullptr);
  EXPECT_TRUE(SameRecords(AsRecords(*resident), *part_));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_NE(*reloaded, nullptr);
  EXPECT_TRUE(SameRecords(AsRecords(*reloaded), *part_));
}

// A Put that lands while the key's reload is in flight wins: the reload's
// caller still gets the reloaded bytes, but the Put's data stays resident.
TEST_F(CacheReloadRaceTest, PutDuringReloadWins) {
  auto cache = MakeCacheWithEvictedKey();
  StatusOr<std::shared_ptr<const void>> reloaded = std::shared_ptr<const void>();
  std::thread loader([&] { reloaded = cache->Get(ds_, 0); });
  gated_.AwaitCalls(1);

  auto replacement = MakePartition(10, 22);
  EXPECT_TRUE(CompletesDuringReload(&gated_, [&] {
    cache->Put(ds_, 0, replacement,
               cache_internal::StpqPartitionBytes(*replacement), nullptr,
               nullptr);
  }));
  loader.join();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_NE(*reloaded, nullptr);
  EXPECT_TRUE(SameRecords(AsRecords(*reloaded), *part_));

  auto after = cache->Get(ds_, 0);
  ASSERT_TRUE(after.ok());
  ASSERT_NE(*after, nullptr);
  EXPECT_EQ(*after, std::shared_ptr<const void>(replacement));
  EXPECT_EQ(gated_.calls(), 1);
}

// A DropDataset that lands while a reload is in flight leaves nothing
// behind; the reload's caller keeps the data it read.
TEST_F(CacheReloadRaceTest, DropDuringReloadLeavesNoEntry) {
  auto cache = MakeCacheWithEvictedKey();
  StatusOr<std::shared_ptr<const void>> reloaded = std::shared_ptr<const void>();
  std::thread loader([&] { reloaded = cache->Get(ds_, 0); });
  gated_.AwaitCalls(1);

  EXPECT_TRUE(CompletesDuringReload(&gated_, [&] { cache->DropDataset(ds_); }));
  loader.join();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_NE(*reloaded, nullptr);
  EXPECT_TRUE(SameRecords(AsRecords(*reloaded), *part_));

  DatasetCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(stats.spilled_entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  auto after = cache->Get(ds_, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, nullptr);
}

// A reload that exhausts its retries returns the error to its own caller
// only: a Get waiting on it wakes and reloads for itself, and the entry
// stays reloadable.
TEST_F(CacheReloadRaceTest, FailedReloadWakesWaitersAndStaysReloadable) {
  auto cache = MakeCacheWithEvictedKey();
  const int attempts = cache->options().retry.max_attempts;
  GlobalFaultInjector().Reset();
  GlobalFaultInjector().FailNext(fault_site::kStpqRead, attempts);

  StatusOr<std::shared_ptr<const void>> failed = std::shared_ptr<const void>();
  std::thread loader([&] { failed = cache->Get(ds_, 0); });
  gated_.AwaitCalls(1);
  StatusOr<std::shared_ptr<const void>> waited = std::shared_ptr<const void>();
  std::thread waiter([&] { waited = cache->Get(ds_, 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gated_.Open();
  loader.join();
  waiter.join();
  GlobalFaultInjector().Reset();

  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), Status::Code::kIOError);
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  ASSERT_NE(*waited, nullptr);
  EXPECT_TRUE(SameRecords(AsRecords(*waited), *part_));
  EXPECT_EQ(gated_.calls(), attempts + 1);

  auto again = cache->Get(ds_, 0);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_NE(*again, nullptr);
  EXPECT_TRUE(SameRecords(AsRecords(*again), *part_));
}

}  // namespace
}  // namespace st4ml
