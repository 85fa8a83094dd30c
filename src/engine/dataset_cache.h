#ifndef ST4ML_ENGINE_DATASET_CACHE_H_
#define ST4ML_ENGINE_DATASET_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/retry.h"
#include "common/status.h"
#include "observability/counters.h"
#include "observability/tracer.h"

namespace st4ml {

/// A byte-budgeted LRU cache of dataset partitions whose data already lives
/// in a durable file — the repo's stand-in for Spark's executor-memory
/// persistence (paper §3.3: repeated work reuses one loaded result instead
/// of re-reading it from disk). Its one producer is the Selector, which
/// caches each loaded STPQ file with its envelope columns.
///
/// Entries are keyed by (dataset id, partition index) and hold type-erased
/// partition data (`std::shared_ptr<const void>`) plus the origin file it
/// was read from and the fn that reads it back. Each entry carries its
/// serialized size; the sum of RESIDENT entry sizes never exceeds the
/// budget after a Put or reload returns. When an insert pushes the cache
/// over budget, least-recently-used entries are evicted until it fits.
/// Eviction only drops memory: the entry stays, and the next Get
/// transparently reloads it from its origin. A partition larger than the
/// whole budget is therefore evicted on insert and reloaded by every Get,
/// and a budget of 0 disables the cache entirely: Put and Get become inert
/// pass-throughs that touch no counters.
///
/// Reloads run under the cache's RetryPolicy and go through the STPQ
/// readers, so the stpq/read fault-injection site and the kTasksRetried
/// accounting apply to them exactly as they do to selection I/O
/// (DESIGN.md §8). Every reload also records an io-category span
/// ("cache/reload") when a tracer is attached, and feeds the kCache*
/// counters.
///
/// Thread-safe: one mutex guards the cache's bookkeeping, and no I/O runs
/// under it. Get and Put are called from RunParallel worker tasks (the
/// Selector's per-file loads). A reload runs with the mutex released, so
/// resident hits and reloads of other keys proceed while it reads and
/// decodes. Reloads are single-flight per key: the first Get of an evicted
/// entry claims it and later Gets of the same key wait for that reload,
/// then count as hits on the re-admitted data. A reload re-admits its
/// result only if no Put replaced the entry meanwhile (each Put stamps a
/// fresh generation); the caller gets the reloaded data either way.
class DatasetCache {
 public:
  /// `budget_bytes == 0` disables caching; kUnbounded never evicts.
  static constexpr uint64_t kUnbounded = ~uint64_t{0};

  struct Options {
    uint64_t budget_bytes = 0;
    /// Wraps every reload read; transient IOErrors (disk pressure,
    /// injected faults) are re-attempted before the reload fails, each
    /// re-attempt bumping kTasksRetried.
    RetryPolicy retry;
  };

  /// Reads a partition back from `path`; adds the bytes read to *io_bytes.
  using ReloadFn = std::function<StatusOr<std::shared_ptr<const void>>(
      const std::string& path, uint64_t* io_bytes)>;

  /// `counters` outlives the cache (the owning ExecutionContext guarantees
  /// this — its registry member is declared before the cache).
  DatasetCache(Options options, CounterRegistry* counters);

  DatasetCache(const DatasetCache&) = delete;
  DatasetCache& operator=(const DatasetCache&) = delete;

  bool enabled() const { return options_.budget_bytes > 0; }
  const Options& options() const { return options_; }

  /// Attaches the tracer reload spans are recorded on (nullptr detaches).
  /// Forwarded by ExecutionContext::set_tracer.
  void set_tracer(Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

  /// A stable id for a named dataset: the same name always maps to the same
  /// id within one cache, so independent Selectors loading the same file
  /// share one entry.
  uint64_t InternDatasetId(const std::string& name);

  /// Inserts a partition whose durable copy is `origin_path`, replacing any
  /// previous entry under the same key, then evicts LRU entries until the
  /// resident bytes fit the budget (the inserted entry is evicted last —
  /// and immediately, if it alone exceeds the budget). Get reads an evicted
  /// entry back with `reload(origin_path)`. No-op when the cache is
  /// disabled.
  void Put(uint64_t dataset_id, uint64_t partition,
           std::shared_ptr<const void> data, uint64_t bytes,
           std::string origin_path, ReloadFn reload);

  /// Looks a partition up. Returns (in order of preference):
  ///  - the resident data — a pure hit;
  ///  - data reloaded from the entry's origin file — a hit plus
  ///    kCacheReloadBytes, re-resident when it fits the budget (a Get that
  ///    finds the same key's reload in flight waits for it instead);
  ///  - nullptr when the key was never inserted — a miss, the caller
  ///    loads it;
  ///  - a non-OK Status when a reload failed after retries.
  /// Disabled caches always return nullptr without counting a miss.
  StatusOr<std::shared_ptr<const void>> Get(uint64_t dataset_id,
                                            uint64_t partition);

  /// A consistent point-in-time view, for tests and the bench.
  struct Stats {
    uint64_t resident_bytes = 0;
    uint64_t resident_entries = 0;
    uint64_t evicted_entries = 0;  // kept, reloadable, not resident
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t reload_bytes = 0;
  };
  Stats stats() const;

 private:
  struct Key {
    uint64_t dataset_id = 0;
    uint64_t partition = 0;
    bool operator==(const Key& other) const {
      return dataset_id == other.dataset_id && partition == other.partition;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      // splitmix64-style mix; the two ids are small sequential integers.
      uint64_t z = key.dataset_id * 0x9e3779b97f4a7c15ULL + key.partition;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      return static_cast<size_t>(z ^ (z >> 31));
    }
  };

  struct Entry {
    std::shared_ptr<const void> data;  // null while evicted
    uint64_t bytes = 0;
    ReloadFn reload;
    std::string origin_path;
    std::list<Key>::iterator lru_it;  // valid only while resident
    bool resident = false;
    bool loading = false;     // a Get is reloading it outside the lock
    uint64_t generation = 0;  // stamped by every Put from next_generation_
  };

  Tracer* tracer() const { return tracer_.load(std::memory_order_acquire); }

  /// Evicts from the LRU end until resident bytes fit the budget.
  void EvictUntilWithinBudgetLocked();
  /// Drops the LRU entry's memory; the entry stays reloadable.
  void EvictOneLocked();
  /// The entry Put is about to overwrite: unlinked from the LRU, its
  /// reload claim (if any) released, and stamped with a fresh generation.
  Entry& ReplaceEntryLocked(const Key& key);
  void MakeResidentLocked(const Key& key, Entry* entry,
                          std::shared_ptr<const void> data);

  Options options_;
  CounterRegistry* counters_;
  std::atomic<Tracer*> tracer_{nullptr};

  mutable std::mutex mu_;
  std::condition_variable reload_done_;  // a reload claim ended
  std::list<Key> lru_;  // front = least recently used
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::unordered_map<std::string, uint64_t> interned_;
  uint64_t next_dataset_id_ = 1;
  uint64_t next_generation_ = 1;
  uint64_t resident_bytes_ = 0;
  Stats stats_;  // resident_* / evicted_* fields are filled at stats() time
};

}  // namespace st4ml

#endif  // ST4ML_ENGINE_DATASET_CACHE_H_
