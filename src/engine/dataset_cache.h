#ifndef ST4ML_ENGINE_DATASET_CACHE_H_
#define ST4ML_ENGINE_DATASET_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "observability/counters.h"

namespace st4ml {

/// A byte-budgeted LRU cache of data that already lives in a durable file —
/// the repo's stand-in for Spark's executor-memory persistence (paper §3.3:
/// repeated work reuses one loaded result instead of re-reading it from
/// disk). Its one producer is the Selector, which caches each loaded STPQ
/// file with its envelope columns.
///
/// Everything enters through GetOrLoad, in the shape of Spark's
/// `BlockManager.getOrElseUpdate`: the caller names a string key and hands
/// over the fn that loads it, and the same call serves resident hits, first
/// loads and loads after eviction. Entries hold type-erased data
/// (`std::shared_ptr<const void>`) plus the bytes the load charged; the sum
/// of RESIDENT bytes never exceeds the budget after a load is admitted.
/// When an admission pushes the cache over budget, least-recently-used
/// entries are evicted until it fits. Eviction only drops memory: the key
/// stays known, so the next lookup is counted as a hit that reloads it.
/// An entry larger than the whole budget is therefore evicted on admission
/// and loaded again by every lookup, and a budget of 0 disables the cache:
/// GetOrLoad just runs the load and touches no counters.
///
/// The cache has no I/O or retry policy of its own. The caller's fn does
/// the read, under the caller's retry policy and inside the caller's spans
/// (DESIGN.md §8, §9).
///
/// Thread-safe: one mutex guards the bookkeeping and no load runs under it,
/// so resident hits and loads of other keys proceed while one key loads.
/// Loads are single-flight per key: the first lookup claims the key, and
/// later lookups of it wait for that load, then look again.
class DatasetCache {
 public:
  /// `budget_bytes == 0` disables caching; kUnbounded never evicts.
  static constexpr uint64_t kUnbounded = ~uint64_t{0};

  struct Options {
    uint64_t budget_bytes = 0;
  };

  /// What a load returns: the data and the bytes charged to the budget.
  struct Loaded {
    std::shared_ptr<const void> data;
    uint64_t bytes = 0;
  };
  /// Loads one key; `reload` is true when the key was evicted (its load
  /// counts as a reload, not a first load).
  using LoadFn = std::function<StatusOr<Loaded>(bool reload)>;

  /// `counters` outlives the cache (the owning ExecutionContext guarantees
  /// this — its registry member is declared before the cache).
  DatasetCache(Options options, CounterRegistry* counters);

  DatasetCache(const DatasetCache&) = delete;
  DatasetCache& operator=(const DatasetCache&) = delete;

  bool enabled() const { return options_.budget_bytes > 0; }

  /// Returns `key`'s data:
  ///  - resident: a hit;
  ///  - being loaded by another caller: waits for that load, then looks
  ///    again;
  ///  - evicted: runs `load(true)` — a hit plus kCacheReloadBytes;
  ///  - unknown: a miss, then runs `load(false)`.
  /// A successful load is admitted (and evicted again at once if it alone
  /// exceeds the budget; the caller keeps the data either way). A failed
  /// load returns its Status and wakes the waiters: an evicted key stays
  /// evicted and reloadable, a new key stays absent.
  StatusOr<std::shared_ptr<const void>> GetOrLoad(const std::string& key,
                                                  const LoadFn& load);

  /// A consistent point-in-time view of what the cache holds, for tests and
  /// the bench. Lookups, evictions and reload bytes are engine counters.
  struct Stats {
    uint64_t resident_bytes = 0;
    uint64_t resident_entries = 0;
    uint64_t evicted_entries = 0;  // known, reloadable, not resident
  };
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const void> data;
    uint64_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  /// Makes `key` resident, then evicts from the LRU end until resident
  /// bytes fit the budget.
  void AdmitLocked(const std::string& key, Loaded loaded);

  Options options_;
  CounterRegistry* counters_;

  mutable std::mutex mu_;
  std::condition_variable load_done_;  // a load claim ended
  std::list<std::string> lru_;         // resident keys; front = LRU
  std::unordered_map<std::string, Entry> resident_;
  std::unordered_set<std::string> evicted_;
  std::unordered_set<std::string> loading_;
  uint64_t resident_bytes_ = 0;
};

}  // namespace st4ml

#endif  // ST4ML_ENGINE_DATASET_CACHE_H_
