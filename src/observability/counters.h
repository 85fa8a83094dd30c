#ifndef ST4ML_OBSERVABILITY_COUNTERS_H_
#define ST4ML_OBSERVABILITY_COUNTERS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace st4ml {

/// Every counter the engine maintains, one fixed slot each. The registry is
/// a flat array of atomics, so adding a counter costs one relaxed fetch_add
/// and a snapshot is a plain loop — no maps, no strings, no locks.
///
/// Semantics:
///  - The kShuffle* totals count records and ApproxShuffleBytes that
///    crossed a partition boundary, summed over every operator. The
///    per-operator kShuffle*<Op> slots partition those totals exactly
///    (totals == sum over operators, by construction).
///  - kStpqBytes{Read,Written} count the on-disk STPQ bytes actually
///    consumed/produced, headers included.
///  - kPartitions{Pruned,Scanned} count whole files the on-disk index
///    skipped vs opened during selection.
///  - k{Selection,Conversion,Extraction}RecordsOut are the per-stage record
///    flow the Pipeline facade maintains for its canonical stage names.
///  - kParallelJobs / kChunkClaims count RunParallel calls and successful
///    chunk claims; both are bumped whether or not tracing is enabled, so a
///    traced run and an untraced run produce identical snapshots.
///  - kTasksFailed counts worker tasks that returned a non-OK Status or
///    threw; kTasksRetried counts RetryPolicy re-attempts at the I/O
///    boundaries; kFaultsInjected counts engine-boundary faults the
///    FaultInjector fired (DESIGN.md §8 failure semantics).
///  - kCache{Hits,Misses,Evictions} count DatasetCache lookups that found /
///    did not find an entry and LRU evictions under the byte budget;
///    kCacheReloadBytes counts STPQ bytes the cache read back from the
///    origin files of evicted entries (DESIGN.md §9).
///    A disabled cache (budget 0) touches none of these.
///  - kIndexFilesMmapped counts `.stix` sidecars a selection mmapped;
///    kIndexPagesRead counts the distinct 4 KiB index pages those queries
///    touched (nodes walked, column runs refined, postings resolved);
///    kPostingsHits counts inverted-index postings entries resolved for
///    requested ids (DESIGN.md §12).
///  - kPlanner{MmapIndex,CachedIndex,LinearScan} count the per-file plan the
///    QueryPlanner actually EXECUTED: an intended mmap plan whose sidecar
///    fails validation falls back to — and is counted as — a linear scan.
///  - kWalSegmentsScanned counts `.stwal` staging segments a merged Select
///    served records from (the kWalScan plan); kWalReplayedRecords counts
///    records recovered from WAL segments when an Ingestor reopens a
///    directory after a crash; kCompactionsRun counts background compaction
///    cycles that published at least one partition (DESIGN.md §13).
enum class Counter : uint32_t {
  kShuffleRecords = 0,
  kShuffleBytes,
  kBroadcasts,
  kShuffleRecordsReduceByKey,
  kShuffleBytesReduceByKey,
  kShuffleRecordsGroupByKey,
  kShuffleBytesGroupByKey,
  kShuffleRecordsRepartition,
  kShuffleBytesRepartition,
  kShuffleRecordsStPartition,
  kShuffleBytesStPartition,
  kStpqBytesRead,
  kStpqBytesWritten,
  kStpqFilesRead,
  kStpqFilesWritten,
  kPartitionsPruned,
  kPartitionsScanned,
  kSelectionRecordsOut,
  kSelectionBytesSelected,
  kConversionRecordsIn,
  kConversionRecordsOut,
  kExtractionRecordsIn,
  kExtractionRecordsOut,
  kParallelJobs,
  kChunkClaims,
  kTasksFailed,
  kTasksRetried,
  kFaultsInjected,
  kCacheHits,
  kCacheMisses,
  kCacheEvictions,
  kCacheReloadBytes,
  kIndexFilesMmapped,
  kIndexPagesRead,
  kPostingsHits,
  kPlannerMmapIndex,
  kPlannerCachedIndex,
  kPlannerLinearScan,
  kWalSegmentsScanned,
  kWalReplayedRecords,
  kCompactionsRun,
  kNumCounters,
};

inline constexpr size_t kNumCounters =
    static_cast<size_t>(Counter::kNumCounters);

/// Stable snake_case names, used by the metrics JSON exporter and tests.
inline const char* CounterName(Counter c) {
  constexpr const char* kNames[kNumCounters] = {
      "shuffle_records",
      "shuffle_bytes",
      "broadcasts",
      "shuffle_records_reduce_by_key",
      "shuffle_bytes_reduce_by_key",
      "shuffle_records_group_by_key",
      "shuffle_bytes_group_by_key",
      "shuffle_records_repartition",
      "shuffle_bytes_repartition",
      "shuffle_records_st_partition",
      "shuffle_bytes_st_partition",
      "stpq_bytes_read",
      "stpq_bytes_written",
      "stpq_files_read",
      "stpq_files_written",
      "partitions_pruned",
      "partitions_scanned",
      "selection_records_out",
      "selection_bytes_selected",
      "conversion_records_in",
      "conversion_records_out",
      "extraction_records_in",
      "extraction_records_out",
      "parallel_jobs",
      "chunk_claims",
      "tasks_failed",
      "tasks_retried",
      "faults_injected",
      "cache_hits",
      "cache_misses",
      "cache_evictions",
      "cache_reload_bytes",
      "index_files_mmapped",
      "index_pages_read",
      "postings_hits",
      "planner_mmap_index",
      "planner_cached_index",
      "planner_linear_scan",
      "wal_segments_scanned",
      "wal_replayed_records",
      "compactions_run",
  };
  return kNames[static_cast<size_t>(c)];
}

/// The shuffle-moving operators, for per-operator byte attribution.
enum class ShuffleOp : uint32_t {
  kReduceByKey,
  kGroupByKey,
  kRepartition,
  kStPartition,
};

/// An immutable, value-typed copy of every counter — what applications,
/// tests and benches read. Taken atomically slot-by-slot (each slot is
/// internally consistent; the engine only publishes whole-operation deltas,
/// so between operations a snapshot is exact).
struct MetricsSnapshot {
  std::array<uint64_t, kNumCounters> values{};

  uint64_t operator[](Counter c) const {
    return values[static_cast<size_t>(c)];
  }

  bool operator==(const MetricsSnapshot& other) const {
    return values == other.values;
  }
};

class CounterRegistry;

namespace internal {
/// The job-scoped counter sink installed on the current thread (nullptr when
/// no job is active). Every CounterRegistry::Add forwards its delta here in
/// addition to the registry's own slot, which is how one shared engine
/// serving several concurrent pipelines keeps an EXACT per-job copy of each
/// counter: the Session/Job layer installs a job's registry on the driver
/// thread (ScopedJobCounters) and the engine re-installs it on whichever
/// worker thread runs one of that job's chunks — so a delta is attributed to
/// the job that caused it, never to a neighbor sharing the pool.
inline thread_local CounterRegistry* tls_job_counters = nullptr;
}  // namespace internal

/// The mutable registry behind ExecutionContext::MetricsSnapshot(). Only the
/// engine writes it (via internal::Counters); everyone else sees snapshots.
class CounterRegistry {
 public:
  void Add(Counter c, uint64_t delta) {
    AddSlot(c, delta);
    CounterRegistry* job = internal::tls_job_counters;
    // AddSlot, not Add: the job registry must not forward back into itself.
    if (job != nullptr && job != this) job->AddSlot(c, delta);
  }

  /// One shuffle's accounting: bumps the legacy totals and the per-operator
  /// attribution in lockstep, so totals always equal the per-op sum.
  void AddShuffle(ShuffleOp op, uint64_t records, uint64_t bytes) {
    Add(Counter::kShuffleRecords, records);
    Add(Counter::kShuffleBytes, bytes);
    switch (op) {
      case ShuffleOp::kReduceByKey:
        Add(Counter::kShuffleRecordsReduceByKey, records);
        Add(Counter::kShuffleBytesReduceByKey, bytes);
        break;
      case ShuffleOp::kGroupByKey:
        Add(Counter::kShuffleRecordsGroupByKey, records);
        Add(Counter::kShuffleBytesGroupByKey, bytes);
        break;
      case ShuffleOp::kRepartition:
        Add(Counter::kShuffleRecordsRepartition, records);
        Add(Counter::kShuffleBytesRepartition, bytes);
        break;
      case ShuffleOp::kStPartition:
        Add(Counter::kShuffleRecordsStPartition, records);
        Add(Counter::kShuffleBytesStPartition, bytes);
        break;
    }
  }

  void AddBroadcast() { Add(Counter::kBroadcasts, 1); }

  void Reset() {
    for (auto& value : values_) value.store(0, std::memory_order_relaxed);
  }

  MetricsSnapshot Snapshot() const {
    MetricsSnapshot snap;
    for (size_t i = 0; i < kNumCounters; ++i) {
      snap.values[i] = values_[i].load(std::memory_order_relaxed);
    }
    return snap;
  }

  uint64_t value(Counter c) const {
    return values_[static_cast<size_t>(c)].load(std::memory_order_relaxed);
  }

 private:
  void AddSlot(Counter c, uint64_t delta) {
    values_[static_cast<size_t>(c)].fetch_add(delta,
                                              std::memory_order_relaxed);
  }

  std::array<std::atomic<uint64_t>, kNumCounters> values_{};
};

/// RAII installer of a job-scoped counter sink on the CURRENT thread: while
/// alive, every counter delta recorded on this thread (and, via the engine,
/// on worker threads running this job's chunks) is also added to `job`.
/// Nests: the previous sink is restored on destruction. Thread-bound by
/// construction — create and destroy on the same thread.
class ScopedJobCounters {
 public:
  explicit ScopedJobCounters(CounterRegistry* job)
      : prev_(internal::tls_job_counters) {
    internal::tls_job_counters = job;
  }
  ~ScopedJobCounters() { internal::tls_job_counters = prev_; }

  ScopedJobCounters(const ScopedJobCounters&) = delete;
  ScopedJobCounters& operator=(const ScopedJobCounters&) = delete;

 private:
  CounterRegistry* prev_;
};

}  // namespace st4ml

#endif  // ST4ML_OBSERVABILITY_COUNTERS_H_
