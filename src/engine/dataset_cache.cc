#include "engine/dataset_cache.h"

#include <utility>

namespace st4ml {

DatasetCache::DatasetCache(Options options, CounterRegistry* counters)
    : options_(options), counters_(counters) {}

StatusOr<std::shared_ptr<const void>> DatasetCache::GetOrLoad(
    const std::string& key, const LoadFn& load) {
  if (!enabled()) {
    auto loaded = load(/*reload=*/false);
    if (!loaded.ok()) return loaded.status();
    return std::move(loaded->data);
  }
  std::unique_lock<std::mutex> lock(mu_);
  // Another caller is loading this key: wait for it rather than read the
  // same file twice, then look again (normally a resident hit).
  load_done_.wait(lock, [&] { return loading_.count(key) == 0; });
  auto it = resident_.find(key);
  if (it != resident_.end()) {
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
    counters_->Add(Counter::kCacheHits, 1);
    return it->second.data;
  }
  const bool reload = evicted_.count(key) > 0;
  if (!reload) counters_->Add(Counter::kCacheMisses, 1);
  // Claim the key and load it with the lock released. The claim ends on
  // every way out, a throwing load included, so its waiters always wake.
  loading_.insert(key);
  struct ClaimEnd {
    DatasetCache* cache;
    const std::string& key;
    std::unique_lock<std::mutex>& lock;
    ~ClaimEnd() {
      if (!lock.owns_lock()) lock.lock();
      cache->loading_.erase(key);
      cache->load_done_.notify_all();
    }
  } claim_end{this, key, lock};
  lock.unlock();
  StatusOr<Loaded> loaded = load(reload);
  lock.lock();
  if (!loaded.ok()) return loaded.status();
  if (reload) {
    counters_->Add(Counter::kCacheHits, 1);
    counters_->Add(Counter::kCacheReloadBytes, loaded->bytes);
  }
  std::shared_ptr<const void> data = loaded->data;
  AdmitLocked(key, std::move(loaded).value());
  return data;
}

void DatasetCache::AdmitLocked(const std::string& key, Loaded loaded) {
  // The claim kept every other caller off this key, so it is not resident.
  evicted_.erase(key);
  resident_bytes_ += loaded.bytes;
  resident_.emplace(key, Entry{std::move(loaded.data), loaded.bytes,
                               lru_.insert(lru_.end(), key)});
  // Evict from the LRU end, the admitted entry last; kUnbounded never
  // evicts. An evicted entry keeps only its key.
  while (resident_bytes_ > options_.budget_bytes) {
    auto victim = resident_.find(lru_.front());
    resident_bytes_ -= victim->second.bytes;
    resident_.erase(victim);
    evicted_.insert(std::move(lru_.front()));
    lru_.pop_front();
    counters_->Add(Counter::kCacheEvictions, 1);
  }
}

DatasetCache::Stats DatasetCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out;
  out.resident_bytes = resident_bytes_;
  out.resident_entries = resident_.size();
  out.evicted_entries = evicted_.size();
  return out;
}

}  // namespace st4ml
