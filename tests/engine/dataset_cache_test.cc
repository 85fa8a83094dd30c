// DatasetCache unit tests: LRU eviction order, the zero-budget pass-through,
// entries larger than the budget evicted on admission, origin-backed reload
// byte equality, concurrent lookups from RunParallel workers, single-flight
// loads racing other lookups (exercised under TSan in CI), failed loads, and
// the Selector's accounting of first loads vs reloads. Every entry is
// origin-backed, as in the Selector: each partition is written to an STPQ
// file first, and the load fn reads it back from there.

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
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/property.h"
#include "engine/execution_context.h"
#include "observability/tracer.h"
#include "selection/selector.h"
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

/// A partition and its durable copy: the STPQ file it was written to, and
/// that file's size — the bytes the cache accounts, as in the Selector.
struct OriginPartition {
  std::shared_ptr<const std::vector<EventRecord>> records;
  std::string path;
  uint64_t bytes = 0;
};

/// The load of every entry here: reads the origin file back as a shared
/// record vector, charged at the bytes read.
StatusOr<DatasetCache::Loaded> LoadOrigin(const OriginPartition& origin) {
  uint64_t bytes = 0;
  auto loaded = ReadStpqFile<EventRecord>(origin.path, &bytes);
  if (!loaded.ok()) return loaded.status();
  return DatasetCache::Loaded{
      std::make_shared<const std::vector<EventRecord>>(std::move(*loaded)),
      bytes};
}

/// A load fn that counts its calls (and how many were reloads).
struct CountingLoad {
  explicit CountingLoad(const OriginPartition* origin) : origin(origin) {}
  DatasetCache::LoadFn Fn() {
    return [this](bool reload) {
      ++calls;
      reloads += reload;
      return LoadOrigin(*origin);
    };
  }
  const OriginPartition* origin;
  int calls = 0;
  int reloads = 0;
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

  uint64_t Count(Counter counter) { return counters_.Snapshot()[counter]; }

  std::string dir_;
  CounterRegistry counters_;
};

// Each key loads through a fn that counts its calls, which makes the
// eviction ORDER observable: only the LRU victim is ever read back.
TEST_F(DatasetCacheTest, EvictsLeastRecentlyUsedFirst) {
  const OriginPartition part = WriteOrigin("lru", 8, 1);
  DatasetCache cache(OptionsWithBudget(2 * part.bytes), &counters_);
  std::vector<CountingLoad> loads(3, CountingLoad(&part));
  auto get = [&](int key) {
    return cache.GetOrLoad("lru/" + std::to_string(key), loads[key].Fn());
  };
  ASSERT_TRUE(get(0).ok());
  ASSERT_TRUE(get(1).ok());
  // Touch key 0 so key 1 becomes the LRU victim.
  ASSERT_TRUE(get(0).ok());
  ASSERT_TRUE(get(2).ok());
  EXPECT_EQ(Count(Counter::kCacheEvictions), 1u);
  EXPECT_EQ(cache.stats().evicted_entries, 1u);

  ASSERT_TRUE(get(0).ok());
  ASSERT_TRUE(get(2).ok());
  EXPECT_EQ(loads[0].calls, 1) << "a resident entry was read back";
  EXPECT_EQ(loads[2].calls, 1) << "a resident entry was read back";
  auto victim = get(1);
  ASSERT_TRUE(victim.ok());
  EXPECT_TRUE(SameRecords(AsRecords(*victim), *part.records));
  EXPECT_EQ(loads[1].reloads, 1) << "the LRU entry should have been evicted";
  EXPECT_EQ(Count(Counter::kCacheMisses), 3u) << "one per first load";
  EXPECT_EQ(Count(Counter::kCacheHits), 4u) << "a reload counts as a hit";
  EXPECT_EQ(Count(Counter::kCacheReloadBytes), part.bytes);
  EXPECT_LE(cache.stats().resident_bytes, 2 * part.bytes);
}

TEST_F(DatasetCacheTest, ZeroBudgetIsInertPassThrough) {
  DatasetCache cache(OptionsWithBudget(0), &counters_);
  EXPECT_FALSE(cache.enabled());
  const OriginPartition part = WriteOrigin("zero", 4, 2);
  CountingLoad load(&part);
  for (int call = 1; call <= 2; ++call) {
    auto got = cache.GetOrLoad("zero", load.Fn());
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(SameRecords(AsRecords(*got), *part.records));
    EXPECT_EQ(load.calls, call) << "a disabled cache keeps nothing";
  }
  EXPECT_EQ(load.reloads, 0);
  DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(stats.evicted_entries, 0u);
  EXPECT_EQ(Count(Counter::kCacheHits), 0u);
  EXPECT_EQ(Count(Counter::kCacheMisses), 0u);
  EXPECT_EQ(Count(Counter::kCacheEvictions), 0u);
}

// An entry larger than the whole budget is never resident: it is evicted on
// admission, and every later lookup reloads it from its origin.
TEST_F(DatasetCacheTest, OversizedEntryIsEvictedOnInsert) {
  const OriginPartition part = WriteOrigin("oversized", 32, 3);
  DatasetCache cache(OptionsWithBudget(part.bytes / 2), &counters_);
  CountingLoad load(&part);
  ASSERT_TRUE(cache.GetOrLoad("oversized", load.Fn()).ok());

  DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.evicted_entries, 1u);
  EXPECT_EQ(Count(Counter::kCacheEvictions), 1u);

  for (uint64_t call = 1; call <= 2; ++call) {
    auto got = cache.GetOrLoad("oversized", load.Fn());
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(SameRecords(AsRecords(*got), *part.records));
    EXPECT_EQ(load.reloads, static_cast<int>(call)) << "every call reloads";
    EXPECT_EQ(Count(Counter::kCacheHits), call);
    EXPECT_EQ(Count(Counter::kCacheReloadBytes), call * part.bytes);
    EXPECT_EQ(cache.stats().resident_bytes, 0u);
  }
  EXPECT_EQ(Count(Counter::kCacheMisses), 1u);
}

// Eviction writes nothing: it drops the memory, and a reload re-reads the
// durable origin file bit-for-bit.
TEST_F(DatasetCacheTest, OriginBackedEntryReloadsWithoutSpilling) {
  const OriginPartition part_a = WriteOrigin("a", 16, 4);
  const OriginPartition part_b = WriteOrigin("b", 16, 5);
  DatasetCache cache(OptionsWithBudget(part_a.bytes + part_a.bytes / 2),
                     &counters_);
  CountingLoad load_a(&part_a);
  CountingLoad load_b(&part_b);
  ASSERT_TRUE(cache.GetOrLoad("stpq:" + part_a.path, load_a.Fn()).ok());
  ASSERT_TRUE(cache.GetOrLoad("stpq:" + part_b.path, load_b.Fn()).ok());
  ASSERT_EQ(cache.stats().evicted_entries, 1u);
  EXPECT_EQ(std::distance(fs::directory_iterator(dir_),
                          fs::directory_iterator()),
            2)
      << "eviction wrote a file";

  auto got = cache.GetOrLoad("stpq:" + part_a.path, load_a.Fn());  // evicted
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(SameRecords(AsRecords(*got), *part_a.records));
  EXPECT_EQ(load_a.reloads, 1);
  EXPECT_TRUE(fs::exists(part_a.path)) << "origin files are never deleted";
  EXPECT_TRUE(fs::exists(part_b.path)) << "origin files are never deleted";
  EXPECT_EQ(Count(Counter::kCacheReloadBytes), part_a.bytes);
}

// Many RunParallel workers hammer one budget-starved cache: every lookup
// must return exactly its key's records. TSan runs this in CI to pin the
// locking discipline.
TEST_F(DatasetCacheTest, ConcurrentLookupsFromWorkers) {
  constexpr size_t kTasks = 64;
  std::vector<OriginPartition> origins;
  for (size_t i = 0; i < kTasks; ++i) {
    origins.push_back(WriteOrigin("p" + std::to_string(i),
                                  4 + static_cast<int>(i % 13), i));
  }
  auto ctx = ExecutionContext::Create(8);
  ctx->ConfigureCache(OptionsWithBudget(4096));
  DatasetCache& cache = ctx->cache();
  auto lookup = [&](size_t key) -> Status {
    auto got = cache.GetOrLoad(
        "p" + std::to_string(key),
        [&origins, key](bool) { return LoadOrigin(origins[key]); });
    if (!got.ok()) return got.status();
    if (!SameRecords(AsRecords(*got), *origins[key].records)) {
      return Status::Internal("cache returned wrong partition bytes");
    }
    return Status::Ok();
  };

  // Each task looks up its own key and a neighbor's, which another task
  // may be loading at the same moment.
  Status status =
      ctx->TryRunParallel("cache_stress", kTasks, [&](size_t i) -> Status {
        ST4ML_RETURN_IF_ERROR(lookup(i));
        return lookup((i + 7) % kTasks);
      });
  ASSERT_TRUE(status.ok()) << status.ToString();

  // After the storm every key is still retrievable and intact.
  for (size_t i = 0; i < kTasks; ++i) {
    Status again = lookup(i);
    EXPECT_TRUE(again.ok()) << "key " << i << ": " << again.ToString();
  }
  EXPECT_LE(cache.stats().resident_bytes, 4096u);
}

// ---- loads run outside the cache lock: a load fn that counts its calls
// and blocks on a gate holds one load in flight while the test races other
// cache calls against it. The first `failures` calls fail after the gate.

class GatedLoad {
 public:
  explicit GatedLoad(const OriginPartition* origin, int failures = 0)
      : origin_(origin), failures_(failures) {}

  DatasetCache::LoadFn Fn() {
    return [this](bool) -> StatusOr<DatasetCache::Loaded> {
      const int call = calls_.fetch_add(1);
      gate_.wait();
      if (call < failures_) return Status::IOError("injected load failure");
      return LoadOrigin(*origin_);
    };
  }
  int calls() const { return calls_.load(); }
  /// Spins until `n` loads have entered the fn (a 10 s cap keeps a broken
  /// cache from hanging the suite; the callers' assertions then fail).
  void AwaitCalls(int n) const {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (calls_.load() < n && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
  void Open() { gate_.count_down(); }

 private:
  const OriginPartition* origin_;
  const int failures_;
  std::atomic<int> calls_{0};
  std::latch gate_{1};
};

// Runs `fn` while `gated` holds a load in flight and reports whether it
// finished without the load being released; the gate opens either way so
// a cache that blocks fn cannot hang the test.
bool CompletesDuringLoad(GatedLoad* gated, std::function<void()> fn) {
  auto done = std::async(std::launch::async, std::move(fn));
  bool completed =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  gated->Open();
  done.wait();
  return completed;
}

using Lookup = StatusOr<std::shared_ptr<const void>>;

class CacheLoadRaceTest : public DatasetCacheTest {
 protected:
  // Two origin-backed keys under a budget that holds only one, so "evicted"
  // is evicted (reloadable) and "resident" resident; "fresh" is unknown.
  std::unique_ptr<DatasetCache> MakeCacheWithEvictedKey() {
    origin_ = WriteOrigin("origin", 24, 21);
    auto cache = std::make_unique<DatasetCache>(
        OptionsWithBudget(origin_.bytes + origin_.bytes / 2), &counters_);
    CountingLoad load(&origin_);
    EXPECT_TRUE(cache->GetOrLoad("evicted", load.Fn()).ok());
    EXPECT_TRUE(cache->GetOrLoad("resident", load.Fn()).ok());
    DatasetCache::Stats stats = cache->stats();
    EXPECT_EQ(stats.resident_entries, 1u);
    EXPECT_EQ(stats.evicted_entries, 1u);
    return cache;
  }

  /// Eight concurrent lookups of `key` through one gated load.
  std::vector<Lookup> RaceLookups(DatasetCache* cache, const std::string& key,
                                  GatedLoad* gated) {
    constexpr int kWorkers = 8;
    std::vector<Lookup> got(kWorkers, std::shared_ptr<const void>());
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back(
          [&, w] { got[w] = cache->GetOrLoad(key, gated->Fn()); });
    }
    gated->AwaitCalls(1);
    // Give the other workers time to queue behind the in-flight load.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gated->Open();
    for (std::thread& t : workers) t.join();
    return got;
  }

  void ExpectOneSharedCopy(const std::vector<Lookup>& got) {
    for (size_t w = 0; w < got.size(); ++w) {
      ASSERT_TRUE(got[w].ok()) << got[w].status().ToString();
      EXPECT_EQ(*got[w], *got[0]) << "worker " << w << " got another copy";
    }
    EXPECT_TRUE(SameRecords(AsRecords(*got[0]), *origin_.records));
  }

  OriginPartition origin_;
};

// Eight concurrent lookups of one evicted key share a single reload: the
// others wait for it and count as hits on the re-admitted data.
TEST_F(CacheLoadRaceTest, ConcurrentLookupsOfAnEvictedKeyReloadOnce) {
  auto cache = MakeCacheWithEvictedKey();
  const uint64_t hits_before = Count(Counter::kCacheHits);
  GatedLoad gated(&origin_);
  std::vector<Lookup> got = RaceLookups(cache.get(), "evicted", &gated);
  EXPECT_EQ(gated.calls(), 1) << "one reload per key";
  ExpectOneSharedCopy(got);
  EXPECT_EQ(Count(Counter::kCacheHits) - hits_before, got.size());
  EXPECT_EQ(Count(Counter::kCacheReloadBytes), origin_.bytes);
}

// Single flight covers first loads too: one miss loads, the waiters hit.
TEST_F(CacheLoadRaceTest, ConcurrentLookupsOfANewKeyLoadOnce) {
  auto cache = MakeCacheWithEvictedKey();
  const uint64_t hits_before = Count(Counter::kCacheHits);
  const uint64_t misses_before = Count(Counter::kCacheMisses);
  GatedLoad gated(&origin_);
  std::vector<Lookup> got = RaceLookups(cache.get(), "fresh", &gated);
  EXPECT_EQ(gated.calls(), 1) << "one first load per key";
  ExpectOneSharedCopy(got);
  EXPECT_EQ(Count(Counter::kCacheMisses) - misses_before, 1u);
  EXPECT_EQ(Count(Counter::kCacheHits) - hits_before, got.size() - 1);
  EXPECT_EQ(Count(Counter::kCacheReloadBytes), 0u);
}

TEST_F(CacheLoadRaceTest, ResidentHitDoesNotWaitForAnotherKeysLoad) {
  auto cache = MakeCacheWithEvictedKey();
  GatedLoad gated(&origin_);
  Lookup reloaded = std::shared_ptr<const void>();
  std::thread loader(
      [&] { reloaded = cache->GetOrLoad("evicted", gated.Fn()); });
  gated.AwaitCalls(1);

  CountingLoad never(&origin_);
  Lookup resident = std::shared_ptr<const void>();
  EXPECT_TRUE(CompletesDuringLoad(
      &gated, [&] { resident = cache->GetOrLoad("resident", never.Fn()); }))
      << "a resident hit waited behind another key's load";
  loader.join();
  EXPECT_EQ(never.calls, 0) << "a resident hit ran its load";
  ASSERT_TRUE(resident.ok());
  EXPECT_TRUE(SameRecords(AsRecords(*resident), *origin_.records));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(SameRecords(AsRecords(*reloaded), *origin_.records));
}

// A failed reload returns the error to its own caller only: a lookup
// waiting on it wakes and reloads for itself, and the key stays reloadable
// until then.
TEST_F(CacheLoadRaceTest, FailedLoadWakesWaitersAndStaysReloadable) {
  auto cache = MakeCacheWithEvictedKey();
  GatedLoad gated(&origin_, /*failures=*/1);
  Lookup failed = std::shared_ptr<const void>();
  std::thread loader([&] { failed = cache->GetOrLoad("evicted", gated.Fn()); });
  gated.AwaitCalls(1);
  Lookup waited = std::shared_ptr<const void>();
  std::thread waiter([&] { waited = cache->GetOrLoad("evicted", gated.Fn()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gated.Open();
  loader.join();
  waiter.join();

  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), Status::Code::kIOError);
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_TRUE(SameRecords(AsRecords(*waited), *origin_.records));
  EXPECT_EQ(gated.calls(), 2);
  EXPECT_EQ(Count(Counter::kCacheReloadBytes), origin_.bytes)
      << "only the successful reload is charged";
  EXPECT_EQ(Count(Counter::kCacheMisses), 2u) << "setup's first loads only";

  CountingLoad again(&origin_);
  ASSERT_TRUE(cache->GetOrLoad("evicted", again.Fn()).ok());
  EXPECT_EQ(again.calls, 0) << "the waiter's reload was admitted";
}

// A failed first load leaves the key absent: the next lookup is a miss
// that loads it.
TEST_F(CacheLoadRaceTest, FailedFirstLoadLeavesTheKeyAbsent) {
  auto cache = MakeCacheWithEvictedKey();
  GatedLoad failing(&origin_, /*failures=*/1);
  failing.Open();
  Lookup failed = cache->GetOrLoad("fresh", failing.Fn());
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(cache->stats().evicted_entries, 1u) << "only the setup's victim";

  CountingLoad load(&origin_);
  ASSERT_TRUE(cache->GetOrLoad("fresh", load.Fn()).ok());
  EXPECT_EQ(load.calls, 1);
  EXPECT_EQ(load.reloads, 0) << "a failed first load is not a reload";
  EXPECT_EQ(Count(Counter::kCacheMisses), 4u);
}

// A load that throws (say, bad_alloc while indexing) still ends its claim:
// the next lookup of the key runs its own load instead of waiting forever.
TEST_F(CacheLoadRaceTest, ThrowingLoadReleasesTheKey) {
  auto cache = MakeCacheWithEvictedKey();
  EXPECT_THROW(cache->GetOrLoad("evicted",
                                [](bool) -> StatusOr<DatasetCache::Loaded> {
                                  throw std::runtime_error("load threw");
                                }),
               std::runtime_error);
  CountingLoad load(&origin_);
  auto again = std::async(std::launch::async, [&] {
    return cache->GetOrLoad("evicted", load.Fn());
  });
  ASSERT_EQ(again.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "the throwing load kept its claim";
  ASSERT_TRUE(again.get().ok());
  EXPECT_EQ(load.reloads, 1) << "the key stays evicted and reloadable";
}

// Through the Selector under a budget no file fits: the second Select
// reloads every file. Its bytes count as cache reload bytes, while the
// stpq_* counters keep the first Select's loads alone.
TEST_F(DatasetCacheTest, SelectorReloadsAreNotCountedAsStpqReads) {
  testing::CacheWorkload w;
  w.seed = 77;
  w.num_records = 400;
  testing::StagedWorkload staged(w);
  uint64_t file_bytes = 0;
  uint64_t files = 0;
  for (const std::string& path : ListStpqFiles(staged.dir())) {
    file_bytes += FileSizeBytes(path);
    ++files;
  }
  ASSERT_GT(files, 0u);

  auto ctx = ExecutionContext::Create(4);
  ctx->ConfigureCache(OptionsWithBudget(1));
  auto select = [&] {
    Selector<EventRecord> selector(
        ctx, SelectQuery::FromBox(SelectQuery::EverythingBox()));
    auto selected = selector.Select(staged.dir());
    EXPECT_TRUE(selected.ok()) << selected.status().ToString();
    return selected.ok() ? std::move(*selected).Collect()
                         : std::vector<EventRecord>();
  };
  const std::vector<EventRecord> first = select();
  const MetricsSnapshot cold = ctx->MetricsSnapshot();
  EXPECT_EQ(cold[Counter::kStpqBytesRead], file_bytes);
  EXPECT_EQ(cold[Counter::kStpqFilesRead], files);
  EXPECT_EQ(cold[Counter::kCacheMisses], files);
  EXPECT_EQ(cold[Counter::kCacheReloadBytes], 0u);

  auto tracer = std::make_shared<Tracer>();
  ctx->set_tracer(tracer);
  const std::vector<EventRecord> second = select();
  EXPECT_TRUE(SameRecords(first, second));
  // Each reload is traced by its file's own stpq_read span.
  uint64_t traced_reloads = 0;
  uint64_t traced_bytes = 0;
  for (const SpanRecord& span : tracer->Spans()) {
    if (span.name != "stpq_read") continue;
    for (const auto& [arg, value] : span.args) {
      if (arg == "reload") traced_reloads += value;
      if (arg == "bytes") traced_bytes += value;
    }
  }
  EXPECT_EQ(traced_reloads, files);
  EXPECT_EQ(traced_bytes, file_bytes);
  const MetricsSnapshot thrash = ctx->MetricsSnapshot();
  EXPECT_GT(thrash[Counter::kCacheReloadBytes], 0u);
  EXPECT_EQ(thrash[Counter::kCacheReloadBytes], file_bytes);
  EXPECT_EQ(thrash[Counter::kCacheHits], files);
  EXPECT_EQ(thrash[Counter::kStpqBytesRead], file_bytes)
      << "reloads leaked into the first-load I/O counters";
  EXPECT_EQ(thrash[Counter::kStpqFilesRead], files);
  EXPECT_EQ(thrash[Counter::kStpqReadCalls], cold[Counter::kStpqReadCalls]);
}

}  // namespace
}  // namespace st4ml
