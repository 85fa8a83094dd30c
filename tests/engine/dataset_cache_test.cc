// DatasetCache unit tests: LRU eviction order, the zero-budget pass-through,
// partitions larger than the budget evicted on insert, origin-backed reload
// byte equality, concurrent access from RunParallel workers, and reloads
// racing Gets and Puts of the same cache (exercised under TSan in CI). Every
// entry is origin-backed, as in the Selector: each partition is written to
// an STPQ file first, and the cache reads it back from there.

#include "engine/dataset_cache.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <iterator>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/property.h"
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

/// The reload fn of every entry here: reads the origin file back as a
/// shared record vector.
StatusOr<std::shared_ptr<const void>> ReloadRecords(const std::string& path,
                                                    uint64_t* io_bytes) {
  auto loaded = ReadStpqFile<EventRecord>(path, io_bytes);
  if (!loaded.ok()) return loaded.status();
  return std::shared_ptr<const void>(
      std::make_shared<const std::vector<EventRecord>>(std::move(*loaded)));
}

/// A partition and its durable copy: the STPQ file it was written to, and
/// that file's size — the bytes the cache accounts, as in the Selector.
struct OriginPartition {
  std::shared_ptr<const std::vector<EventRecord>> records;
  std::string path;
  uint64_t bytes = 0;
};

class DatasetCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("st4ml_cache_test_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  DatasetCache::Options OptionsWithBudget(uint64_t budget) {
    DatasetCache::Options options;
    options.budget_bytes = budget;
    return options;
  }

  /// Writes MakePartition(n, seed) to `<dir_>/<name>.stpq`.
  OriginPartition WriteOrigin(const std::string& name, int n, uint64_t seed) {
    OriginPartition out;
    out.records = MakePartition(n, seed);
    out.path = dir_ + "/" + name + ".stpq";
    EXPECT_TRUE(WriteStpqFile(out.path, *out.records, nullptr).ok());
    out.bytes = FileSizeBytes(out.path);
    return out;
  }

  void Put(DatasetCache* cache, uint64_t ds, uint64_t partition,
           const OriginPartition& origin,
           DatasetCache::ReloadFn reload = &ReloadRecords) {
    cache->Put(ds, partition, origin.records, origin.bytes, origin.path,
               std::move(reload));
  }

  std::string dir_;
  CounterRegistry counters_;
};

// Each key reloads through a fn that counts its calls, which makes the
// eviction ORDER observable: only the LRU victim is ever read back.
TEST_F(DatasetCacheTest, EvictsLeastRecentlyUsedFirst) {
  const OriginPartition part = WriteOrigin("lru", 8, 1);
  int reloads[3] = {0, 0, 0};
  DatasetCache cache(OptionsWithBudget(2 * part.bytes), &counters_);
  const uint64_t ds = cache.InternDatasetId("lru");
  auto counting = [&reloads](int key) -> DatasetCache::ReloadFn {
    return [&reloads, key](const std::string& path, uint64_t* io_bytes) {
      ++reloads[key];
      return ReloadRecords(path, io_bytes);
    };
  };
  Put(&cache, ds, 0, part, counting(0));
  Put(&cache, ds, 1, part, counting(1));
  // Touch partition 0 so partition 1 becomes the LRU victim.
  ASSERT_NE(*cache.Get(ds, 0), nullptr);
  Put(&cache, ds, 2, part, counting(2));
  DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.evicted_entries, 1u);

  ASSERT_NE(*cache.Get(ds, 0), nullptr);
  ASSERT_NE(*cache.Get(ds, 2), nullptr);
  EXPECT_EQ(reloads[0], 0) << "a resident entry was read back";
  EXPECT_EQ(reloads[2], 0) << "a resident entry was read back";
  auto victim = cache.Get(ds, 1);
  ASSERT_TRUE(victim.ok());
  ASSERT_NE(*victim, nullptr);
  EXPECT_TRUE(SameRecords(AsRecords(*victim), *part.records));
  EXPECT_EQ(reloads[1], 1) << "the LRU entry should have been evicted";
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 0u) << "origin-backed entries never miss";
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_LE(stats.resident_bytes, 2 * part.bytes);
}

TEST_F(DatasetCacheTest, ZeroBudgetIsInertPassThrough) {
  DatasetCache cache(OptionsWithBudget(0), &counters_);
  EXPECT_FALSE(cache.enabled());
  const OriginPartition part = WriteOrigin("zero", 4, 2);
  const uint64_t ds = cache.InternDatasetId("zero");
  Put(&cache, ds, 0, part);
  auto got = cache.Get(ds, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, nullptr);
  DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(stats.evicted_entries, 0u);
  EXPECT_EQ(counters_.Snapshot()[Counter::kCacheMisses], 0u);
}

// A partition larger than the whole budget is never resident: it is evicted
// on insert, and every Get reloads it from its origin.
TEST_F(DatasetCacheTest, OversizedPartitionIsEvictedOnInsert) {
  const OriginPartition part = WriteOrigin("oversized", 32, 3);
  DatasetCache cache(OptionsWithBudget(part.bytes / 2), &counters_);
  const uint64_t ds = cache.InternDatasetId("oversized");
  Put(&cache, ds, 0, part);

  DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.evicted_entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);

  for (uint64_t get = 1; get <= 2; ++get) {
    auto got = cache.Get(ds, 0);
    ASSERT_TRUE(got.ok());
    ASSERT_NE(*got, nullptr);
    EXPECT_TRUE(SameRecords(AsRecords(*got), *part.records));
    stats = cache.stats();
    EXPECT_EQ(stats.hits, get);
    EXPECT_EQ(stats.reload_bytes, get * part.bytes) << "every Get reloads";
    EXPECT_EQ(stats.resident_bytes, 0u);
  }
}

// Eviction writes nothing: it drops the memory, and Get re-reads the durable
// origin file bit-for-bit. The engine counters mirror the cache's own stats.
TEST_F(DatasetCacheTest, OriginBackedEntryReloadsWithoutSpilling) {
  const OriginPartition part_a = WriteOrigin("a", 16, 4);
  const OriginPartition part_b = WriteOrigin("b", 16, 5);
  DatasetCache cache(OptionsWithBudget(part_a.bytes + part_a.bytes / 2),
                     &counters_);
  const uint64_t ds = cache.InternDatasetId("stpq:" + part_a.path);
  EXPECT_EQ(ds, cache.InternDatasetId("stpq:" + part_a.path))
      << "ids are stable";
  Put(&cache, ds, 0, part_a);
  Put(&cache, ds, 1, part_b);
  ASSERT_EQ(cache.stats().evicted_entries, 1u);
  EXPECT_EQ(std::distance(fs::directory_iterator(dir_),
                          fs::directory_iterator()),
            2)
      << "eviction wrote a file";

  auto got = cache.Get(ds, 0);  // the evicted one
  ASSERT_TRUE(got.ok());
  ASSERT_NE(*got, nullptr);
  EXPECT_TRUE(SameRecords(AsRecords(*got), *part_a.records));
  EXPECT_TRUE(fs::exists(part_a.path)) << "origin files are never deleted";

  MetricsSnapshot metrics = counters_.Snapshot();
  DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.reload_bytes, part_a.bytes);
  EXPECT_EQ(metrics[Counter::kCacheHits], stats.hits);
  EXPECT_EQ(metrics[Counter::kCacheMisses], stats.misses);
  EXPECT_EQ(metrics[Counter::kCacheEvictions], stats.evictions);
  EXPECT_EQ(metrics[Counter::kCacheReloadBytes], stats.reload_bytes);
}

// Many RunParallel workers hammer one budget-starved cache: every Get must
// return either the exact records that were Put or a clean miss. TSan runs
// this in CI to pin the locking discipline.
TEST_F(DatasetCacheTest, ConcurrentPutGetFromWorkers) {
  constexpr size_t kTasks = 64;
  auto expected = [](uint64_t key) {
    return MakePartition(4 + static_cast<int>(key % 13), key);
  };
  std::vector<OriginPartition> origins;
  for (size_t i = 0; i < kTasks; ++i) {
    origins.push_back(WriteOrigin("p" + std::to_string(i),
                                  4 + static_cast<int>(i % 13), i));
  }
  auto ctx = ExecutionContext::Create(8);
  ctx->ConfigureCache(OptionsWithBudget(4096));
  DatasetCache& cache = ctx->cache();
  const uint64_t ds = cache.InternDatasetId("workers");

  Status status = ctx->TryRunParallel(
      "cache_stress", kTasks, [&](size_t i) -> Status {
        Put(&cache, ds, i, origins[i]);
        // Read back my partition and a neighbor's (which may or may not be
        // inserted yet — a miss is fine, wrong bytes are not).
        for (uint64_t key : {static_cast<uint64_t>(i), (i + 7) % kTasks}) {
          auto got = cache.Get(ds, key);
          if (!got.ok()) return got.status();
          if (*got == nullptr) continue;
          if (!SameRecords(AsRecords(*got), *expected(key))) {
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
    EXPECT_TRUE(SameRecords(AsRecords(*got), *expected(i)))
        << "partition " << i;
  }
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
      return ReloadRecords(path, io_bytes);
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
    origin_ = WriteOrigin("origin", 24, 21);
    DatasetCache::Options options =
        OptionsWithBudget(origin_.bytes + origin_.bytes / 2);
    options.retry.initial_backoff = std::chrono::milliseconds(0);
    auto cache = std::make_unique<DatasetCache>(options, &counters_);
    ds_ = cache->InternDatasetId("race");
    Put(cache.get(), ds_, 0, origin_, gated_.Fn());
    Put(cache.get(), ds_, 1, origin_);
    DatasetCache::Stats stats = cache->stats();
    EXPECT_EQ(stats.resident_entries, 1u);
    EXPECT_EQ(stats.evicted_entries, 1u);
    return cache;
  }

  GatedReload gated_;
  OriginPartition origin_;
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
  EXPECT_TRUE(SameRecords(AsRecords(*got[0]), *origin_.records));
  DatasetCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.hits - hits_before, uint64_t{kWorkers});
  EXPECT_EQ(counters_.Snapshot()[Counter::kCacheHits] - counter_hits_before,
            uint64_t{kWorkers});
  EXPECT_EQ(stats.reload_bytes, origin_.bytes);
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
  EXPECT_TRUE(SameRecords(AsRecords(*resident), *origin_.records));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_NE(*reloaded, nullptr);
  EXPECT_TRUE(SameRecords(AsRecords(*reloaded), *origin_.records));
}

// A Put that lands while the key's reload is in flight wins: the reload's
// caller still gets the reloaded bytes, but the Put's data stays resident.
TEST_F(CacheReloadRaceTest, PutDuringReloadWins) {
  auto cache = MakeCacheWithEvictedKey();
  StatusOr<std::shared_ptr<const void>> reloaded = std::shared_ptr<const void>();
  std::thread loader([&] { reloaded = cache->Get(ds_, 0); });
  gated_.AwaitCalls(1);

  const OriginPartition replacement = WriteOrigin("replacement", 10, 22);
  EXPECT_TRUE(CompletesDuringReload(
      &gated_, [&] { Put(cache.get(), ds_, 0, replacement); }));
  loader.join();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_NE(*reloaded, nullptr);
  EXPECT_TRUE(SameRecords(AsRecords(*reloaded), *origin_.records));

  auto after = cache->Get(ds_, 0);
  ASSERT_TRUE(after.ok());
  ASSERT_NE(*after, nullptr);
  EXPECT_EQ(*after, std::shared_ptr<const void>(replacement.records));
  EXPECT_EQ(gated_.calls(), 1);
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
  EXPECT_TRUE(SameRecords(AsRecords(*waited), *origin_.records));
  EXPECT_EQ(gated_.calls(), attempts + 1);

  auto again = cache->Get(ds_, 0);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_NE(*again, nullptr);
  EXPECT_TRUE(SameRecords(AsRecords(*again), *origin_.records));
}

}  // namespace
}  // namespace st4ml
