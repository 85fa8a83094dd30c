#include "engine/dataset_cache.h"

#include <unistd.h>

#include <filesystem>
#include <system_error>

#include "common/logging.h"

namespace st4ml {

namespace fs = std::filesystem;

namespace {

std::string DefaultScratchDir() {
  static std::atomic<uint64_t> seq{0};
  std::error_code ec;
  fs::path base = fs::temp_directory_path(ec);
  if (ec) base = ".";
  return (base / ("st4ml_cache_" + std::to_string(::getpid()) + "_" +
                  std::to_string(seq.fetch_add(1))))
      .string();
}

}  // namespace

DatasetCache::DatasetCache(Options options, CounterRegistry* counters)
    : options_(std::move(options)), counters_(counters) {
  if (options_.scratch_dir.empty()) options_.scratch_dir = DefaultScratchDir();
}

DatasetCache::~DatasetCache() {
  if (scratch_created_) {
    std::error_code ec;
    fs::remove_all(options_.scratch_dir, ec);  // best effort
  }
}

uint64_t DatasetCache::NewDatasetId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_dataset_id_++;
}

uint64_t DatasetCache::InternDatasetId(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = interned_.emplace(name, next_dataset_id_);
  if (inserted) ++next_dataset_id_;
  return it->second;
}

void DatasetCache::Put(uint64_t dataset_id, uint64_t partition,
                       std::shared_ptr<const void> data, uint64_t bytes,
                       SpillFn spill, ReloadFn reload) {
  if (!enabled()) return;
  Key key{dataset_id, partition};
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = ReplaceEntryLocked(key);
  entry.bytes = bytes;
  entry.spill = std::move(spill);
  entry.reload = std::move(reload);
  // A replacing Put invalidates any previous spill copy of this key.
  if (entry.owns_disk_file && entry.on_disk) {
    std::error_code ec;
    fs::remove(entry.disk_path, ec);
  }
  entry.on_disk = false;
  entry.owns_disk_file = false;
  MakeResidentLocked(key, &entry, std::move(data));
  EvictUntilWithinBudgetLocked();
}

void DatasetCache::PutWithOrigin(uint64_t dataset_id, uint64_t partition,
                                 std::shared_ptr<const void> data,
                                 uint64_t bytes, std::string origin_path,
                                 ReloadFn reload) {
  if (!enabled()) return;
  Key key{dataset_id, partition};
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = ReplaceEntryLocked(key);
  entry.bytes = bytes;
  entry.spill = nullptr;
  entry.reload = std::move(reload);
  entry.disk_path = std::move(origin_path);
  entry.on_disk = true;  // the origin file IS the durable copy
  entry.owns_disk_file = false;
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
    if (entry.reload == nullptr || !entry.on_disk) {
      // Defensive: a non-resident entry is only kept when it is reloadable.
      entries_.erase(it);
      ++stats_.misses;
      counters_->Add(Counter::kCacheMisses, 1);
      return std::shared_ptr<const void>();
    }
    // Spilled (or origin-backed): claim the reload and run it, retries and
    // backoff included, with the lock released. The STPQ readers inside the
    // reload fn hit the stpq/read fault-injection site exactly like a
    // selection load.
    entry.loading = true;
    const uint64_t generation = entry.generation;
    const ReloadFn reload = entry.reload;
    const std::string path = entry.disk_path;
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

    // A Put bumps the generation and a DropDataset erases the entry; either
    // one hands the key to its new state, so only an unchanged entry is
    // re-admitted or has its claim released here.
    auto now = entries_.find(key);
    const bool unchanged =
        now != entries_.end() && now->second.generation == generation;
    if (unchanged) {
      now->second.loading = false;
      reload_done_.notify_all();
    }
    if (!reloaded.ok()) {
      // The entry stays reloadable; a failure on a replaced or dropped
      // entry is answered from the key's new state instead.
      if (unchanged) return reloaded.status();
      continue;
    }
    stats_.reload_bytes += read_bytes;
    ++stats_.hits;
    counters_->Add(Counter::kCacheHits, 1);
    counters_->Add(Counter::kCacheReloadBytes, read_bytes);
    // Re-admit the reloaded partition; an entry larger than the whole
    // budget is evicted again right away (its disk copy persists), but the
    // caller keeps the shared_ptr either way.
    if (unchanged) {
      MakeResidentLocked(key, &now->second, *reloaded);
      EvictUntilWithinBudgetLocked();
    }
    return std::move(reloaded).value();
  }
}

void DatasetCache::DropDataset(uint64_t dataset_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.dataset_id != dataset_id) {
      ++it;
      continue;
    }
    Entry& entry = it->second;
    if (entry.resident) {
      lru_.erase(entry.lru_it);
      resident_bytes_ -= entry.bytes;
    }
    if (entry.owns_disk_file && entry.on_disk) {
      std::error_code ec;
      fs::remove(entry.disk_path, ec);
    }
    it = entries_.erase(it);
  }
  // Gets waiting on a reload of a dropped entry wake to a miss.
  reload_done_.notify_all();
}

DatasetCache::Stats DatasetCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.resident_bytes = resident_bytes_;
  out.resident_entries = lru_.size();
  out.spilled_entries = entries_.size() - lru_.size();
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
  // Entries whose spill failed rotate to the MRU end and stay resident;
  // once every remaining resident entry has failed, stop rather than spin.
  size_t failed_spills = 0;
  while (resident_bytes_ > options_.budget_bytes &&
         lru_.size() > failed_spills) {
    if (!EvictOneLocked()) ++failed_spills;
  }
}

bool DatasetCache::EvictOneLocked() {
  Key key = lru_.front();
  Entry& entry = entries_.at(key);
  if (!entry.on_disk && entry.spill != nullptr) {
    // First eviction of a spillable entry: write the STPQ copy.
    ScopedSpan io(tracer(), span_category::kIo, "cache/spill");
    std::string path = SpillPathLocked(key);
    uint64_t written = 0;
    Status status = options_.retry.Run(
        [&]() -> Status {
          uint64_t attempt_bytes = 0;
          Status write = entry.spill(entry.data.get(), path, &attempt_bytes);
          if (write.ok()) written = attempt_bytes;
          return write;
        },
        counters_);
    if (!status.ok()) {
      // Losing data to free memory is worse than running over budget: keep
      // the entry resident but rotate it to the MRU end so the next
      // eviction pass tries a different victim.
      if (!spill_failure_logged_) {
        spill_failure_logged_ = true;
        LogWarn("cache spill failed, keeping partition resident: " +
                status.ToString());
      }
      lru_.splice(lru_.end(), lru_, entry.lru_it);
      return false;
    }
    io.AddArg("bytes", written);
    entry.disk_path = std::move(path);
    entry.on_disk = true;
    entry.owns_disk_file = true;
    stats_.spill_bytes += written;
    counters_->Add(Counter::kCacheSpillBytes, written);
  }
  lru_.pop_front();
  resident_bytes_ -= entry.bytes;
  entry.resident = false;
  ++stats_.evictions;
  counters_->Add(Counter::kCacheEvictions, 1);
  if (entry.on_disk) {
    entry.data = nullptr;  // reloadable: drop the memory, keep the entry
  } else {
    entries_.erase(key);  // no disk copy and no spill fn: gone for good
  }
  return true;
}

std::string DatasetCache::SpillPathLocked(const Key& key) {
  if (!scratch_created_) {
    std::error_code ec;
    fs::create_directories(options_.scratch_dir, ec);
    scratch_created_ = true;
  }
  return options_.scratch_dir + "/ds" + std::to_string(key.dataset_id) +
         "_p" + std::to_string(key.partition) + ".stpq";
}

}  // namespace st4ml
