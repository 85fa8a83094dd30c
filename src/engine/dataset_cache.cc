#include "engine/dataset_cache.h"

namespace st4ml {

DatasetCache::DatasetCache(Options options, CounterRegistry* counters)
    : options_(std::move(options)), counters_(counters) {}

uint64_t DatasetCache::InternDatasetId(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = interned_.emplace(name, next_dataset_id_);
  if (inserted) ++next_dataset_id_;
  return it->second;
}

void DatasetCache::Put(uint64_t dataset_id, uint64_t partition,
                       std::shared_ptr<const void> data, uint64_t bytes,
                       std::string origin_path, ReloadFn reload) {
  if (!enabled()) return;
  Key key{dataset_id, partition};
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = ReplaceEntryLocked(key);
  entry.bytes = bytes;
  entry.reload = std::move(reload);
  entry.origin_path = std::move(origin_path);
  MakeResidentLocked(key, &entry, std::move(data));
  EvictUntilWithinBudgetLocked();
}

StatusOr<std::shared_ptr<const void>> DatasetCache::Get(uint64_t dataset_id,
                                                        uint64_t partition) {
  if (!enabled()) return std::shared_ptr<const void>();
  Key key{dataset_id, partition};
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      counters_->Add(Counter::kCacheMisses, 1);
      return std::shared_ptr<const void>();
    }
    Entry& entry = it->second;
    if (entry.resident) {
      // Pure hit: splice to the MRU end.
      lru_.splice(lru_.end(), lru_, entry.lru_it);
      ++stats_.hits;
      counters_->Add(Counter::kCacheHits, 1);
      return entry.data;
    }
    if (entry.loading) {
      // Another Get is reloading this key: wait for it rather than read the
      // same file twice, then look again (normally a resident hit).
      reload_done_.wait(lock);
      continue;
    }
    // Evicted: claim the reload and run it, retries and backoff included,
    // with the lock released. The STPQ readers inside the reload fn hit the
    // stpq/read fault-injection site exactly like a selection load.
    entry.loading = true;
    const uint64_t generation = entry.generation;
    const ReloadFn reload = entry.reload;
    const std::string path = entry.origin_path;
    lock.unlock();
    uint64_t read_bytes = 0;
    StatusOr<std::shared_ptr<const void>> reloaded = [&] {
      ScopedSpan io(tracer(), span_category::kIo, "cache/reload");
      auto result = options_.retry.Run(
          [&]() -> StatusOr<std::shared_ptr<const void>> {
            uint64_t attempt_bytes = 0;
            auto attempt = reload(path, &attempt_bytes);
            if (attempt.ok()) read_bytes = attempt_bytes;
            return attempt;
          },
          counters_);
      if (result.ok()) io.AddArg("bytes", read_bytes);
      return result;
    }();
    lock.lock();

    // Entries are never erased, but a Put bumps the generation and hands
    // the key to its new data, so only an unchanged entry is re-admitted or
    // has its claim released here.
    Entry& now = entries_.at(key);
    const bool unchanged = now.generation == generation;
    if (unchanged) {
      now.loading = false;
      reload_done_.notify_all();
    }
    if (!reloaded.ok()) {
      // The entry stays reloadable; a failure on a replaced entry is
      // answered from the key's new state instead.
      if (unchanged) return reloaded.status();
      continue;
    }
    stats_.reload_bytes += read_bytes;
    ++stats_.hits;
    counters_->Add(Counter::kCacheHits, 1);
    counters_->Add(Counter::kCacheReloadBytes, read_bytes);
    // Re-admit the reloaded partition; an entry larger than the whole
    // budget is evicted again right away, but the caller keeps the
    // shared_ptr either way.
    if (unchanged) {
      MakeResidentLocked(key, &now, *reloaded);
      EvictUntilWithinBudgetLocked();
    }
    return std::move(reloaded).value();
  }
}

DatasetCache::Stats DatasetCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.resident_bytes = resident_bytes_;
  out.resident_entries = lru_.size();
  out.evicted_entries = entries_.size() - lru_.size();
  return out;
}

DatasetCache::Entry& DatasetCache::ReplaceEntryLocked(const Key& key) {
  Entry& entry = entries_[key];
  if (entry.resident) {
    lru_.erase(entry.lru_it);
    resident_bytes_ -= entry.bytes;
    entry.resident = false;
  }
  if (entry.loading) {
    // The in-flight reload will see the new generation and re-admit
    // nothing; its waiters wake to the data this Put installs.
    entry.loading = false;
    reload_done_.notify_all();
  }
  entry.generation = next_generation_++;
  return entry;
}

void DatasetCache::MakeResidentLocked(const Key& key, Entry* entry,
                                      std::shared_ptr<const void> data) {
  entry->data = std::move(data);
  entry->lru_it = lru_.insert(lru_.end(), key);
  entry->resident = true;
  resident_bytes_ += entry->bytes;
}

void DatasetCache::EvictUntilWithinBudgetLocked() {
  if (options_.budget_bytes == kUnbounded) return;
  while (resident_bytes_ > options_.budget_bytes) EvictOneLocked();
}

void DatasetCache::EvictOneLocked() {
  Entry& entry = entries_.at(lru_.front());
  lru_.pop_front();
  resident_bytes_ -= entry.bytes;
  entry.resident = false;
  entry.data = nullptr;
  ++stats_.evictions;
  counters_->Add(Counter::kCacheEvictions, 1);
}

}  // namespace st4ml
