#ifndef ST4ML_ENGINE_EXECUTION_CONTEXT_H_
#define ST4ML_ENGINE_EXECUTION_CONTEXT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/dataset_cache.h"
#include "observability/counters.h"
#include "observability/tracer.h"

namespace st4ml {

class ExecutionContext;

namespace internal {
/// The engine-internal mutable path to the context's counters. Library
/// operators (shuffles, broadcast, selection I/O) account through this;
/// applications, tests and benches read via ExecutionContext::
/// MetricsSnapshot() and reset via ResetMetrics() — there is deliberately
/// no public mutable accessor.
CounterRegistry& Counters(ExecutionContext& ctx);
}  // namespace internal

/// A process-local stand-in for a Spark context: owns the worker pool every
/// Dataset operation fans out on, the engine counters, and (optionally) the
/// tracer.
///
/// Dispatch is chunked, not queued: a RunParallel call publishes ONE job
/// (fn, count, chunk size) and workers claim index ranges off an atomic
/// counter. Thousands of one-partition tasks therefore cost a handful of
/// fetch_adds instead of thousands of mutex-protected queue operations, and
/// a worker that finishes its range immediately steals the next unclaimed
/// one — skewed partitions rebalance without any per-task allocation.
///
/// Observability: with a tracer attached (set_tracer), every RunParallel
/// call records an operation span and each claimed chunk a task span, both
/// parented under the driver's current span — so a Pipeline stage nests
/// stage → operation → task. With no tracer (the default) the only cost is
/// a null-pointer check per operation plus the chunk-claim counter, which
/// is bumped either way so traced and untraced runs snapshot identically.
///
/// Fault tolerance (DESIGN.md §8): a task that returns a non-OK Status or
/// throws FAILS THE JOB, never the process. The first error is captured,
/// the job's remaining chunks are claimed-and-dropped so every participant
/// (including the blocked driver) always drains, and the error surfaces to
/// the caller — as the returned Status on the TryRunParallel path, or as
/// one exception rethrown on the DRIVER thread on the void RunParallel
/// path. Worker threads survive to run the next job; nothing unwinds
/// through WorkerLoop.
///
/// Concurrency (DESIGN.md §10): RunParallel may be called from SEVERAL
/// driver threads at once — one warm daemon context serves every in-flight
/// request. Each call publishes its job into an active list; idle workers
/// claim chunks from the first job that still has unclaimed indices, so
/// concurrent pipelines share the pool instead of the latest publisher
/// stealing it. Per-job attribution stays exact: each job captures the
/// publishing thread's job-scoped counter sink (ScopedJobCounters) and the
/// engine re-installs it on whichever thread runs that job's chunks.
class ExecutionContext : public std::enable_shared_from_this<ExecutionContext> {
 public:
  /// `Create()` sizes the pool to the hardware; `Create(n)` forces n workers.
  static std::shared_ptr<ExecutionContext> Create();
  static std::shared_ptr<ExecutionContext> Create(int num_workers);

  ~ExecutionContext();

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  int num_workers() const { return num_workers_; }

  /// An atomic, thread-safe copy of every engine counter. This is the ONLY
  /// way to read metrics; mutation is engine-internal (internal::Counters).
  st4ml::MetricsSnapshot MetricsSnapshot() const {
    return counters_.Snapshot();
  }

  /// Zeroes every counter (benchmark harnesses between measured runs).
  void ResetMetrics() { counters_.Reset(); }

  /// Attaches (or, with nullptr, detaches) a tracer. The context keeps the
  /// tracer alive; instrumentation sites read the raw pointer. Forwarded to
  /// the dataset cache so its reload spans land in the same trace.
  void set_tracer(std::shared_ptr<Tracer> tracer);
  Tracer* tracer() const { return tracer_.load(std::memory_order_acquire); }

  /// The context's dataset cache (DESIGN.md §9). Created on first access
  /// with a budget from ST4ML_CACHE_BUDGET_BYTES (0 and unset mean
  /// disabled; negative means unbounded), so library layers can consult
  /// the cache unconditionally and pay nothing when it is off.
  DatasetCache& cache();

  /// Replaces the cache with one built from `options` — the programmatic
  /// spelling of the env knob (tools' --cache-budget, tests, benches).
  /// Call between pipelines: entries of the previous cache are dropped.
  void ConfigureCache(DatasetCache::Options options);

  /// Runs `fn(0) .. fn(count - 1)` across the pool and blocks until all
  /// finish. The calling thread participates in the claim loop, so even a
  /// one-worker pool overlaps nothing but loses nothing. `fn` must not
  /// itself call RunParallel on the same context. `name` labels the
  /// operation span when tracing is enabled.
  ///
  /// If any task throws, the job stops early and the FIRST exception is
  /// rethrown here, on the calling thread — the process never terminates
  /// and the pool never deadlocks on a failed job. Fallible tasks should
  /// prefer TryRunParallel, which carries the error as a Status instead.
  void RunParallel(size_t count, const std::function<void(size_t)>& fn) {
    RunParallel("parallel_for", count, fn);
  }
  void RunParallel(const char* name, size_t count,
                   const std::function<void(size_t)>& fn);

  /// The Status-returning task path: runs `fn(0) .. fn(count - 1)` like
  /// RunParallel, but tasks report failure by returning a non-OK Status
  /// (exceptions are caught and converted, StatusError keeping its code).
  /// The first failure stops further chunk claims and is returned;
  /// remaining indices are skipped. Never throws engine-side.
  Status TryRunParallel(size_t count,
                        const std::function<Status(size_t)>& fn) {
    return TryRunParallel("parallel_for", count, fn);
  }
  Status TryRunParallel(const char* name, size_t count,
                        const std::function<Status(size_t)>& fn) {
    return RunParallelImpl(name, count, fn, nullptr);
  }

 private:
  /// One published parallel-for. Heap-allocated per RunParallel call and
  /// kept alive by the shared_ptr each participating thread copies, so a
  /// worker that wakes late for a finished job claims nothing and never
  /// touches a successor job's counters.
  struct ParallelJob {
    const std::function<Status(size_t)>* fn = nullptr;
    size_t count = 0;
    size_t chunk = 1;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    CounterRegistry* counters = nullptr;
    /// The publishing thread's job-scoped counter sink (may be null):
    /// re-installed on every thread that runs this job's chunks, so worker-
    /// side deltas land in the right Job even when several jobs share the
    /// pool.
    CounterRegistry* job_counters = nullptr;
    Tracer* tracer = nullptr;  // null when tracing is off
    uint64_t op_span = 0;      // parent for task spans

    /// Failure state. `failed` flips exactly once (first error wins, under
    /// error_mu); after that claims are dropped unrun but still accounted
    /// into `done`, so the driver's done_cv_ predicate always completes.
    std::atomic<bool> failed{false};
    std::mutex error_mu;
    Status error;
    std::exception_ptr exception;  // set when the failure was a throw
  };

  explicit ExecutionContext(int num_workers);

  /// Shared engine of both public paths. Returns the job's first error (OK
  /// when every index ran); when `exception_out` is non-null it receives
  /// the original exception_ptr of a throwing task, for rethrow.
  Status RunParallelImpl(const char* name, size_t count,
                         const std::function<Status(size_t)>& fn,
                         std::exception_ptr* exception_out);

  void WorkerLoop();
  /// Claims chunks of `job` until none remain; returns indices accounted
  /// (run, or dropped because the job already failed).
  static size_t RunChunks(ParallelJob* job);
  /// Runs one claimed chunk, converting throws to Status; on the first
  /// failure marks the job failed.
  static void RunChunkBody(ParallelJob* job, size_t start, size_t end);
  /// Records `status`/`exception` as the job's error iff it is the first.
  static void FailJob(ParallelJob* job, Status status,
                      std::exception_ptr exception);

  friend CounterRegistry& internal::Counters(ExecutionContext& ctx);

  int num_workers_;
  CounterRegistry counters_;
  std::shared_ptr<Tracer> tracer_owned_;
  std::atomic<Tracer*> tracer_{nullptr};

  // Declared after counters_ so the cache (which holds a CounterRegistry*)
  // is destroyed first. Guarded by its own mutex: worker tasks reach the
  // cache through ctx->cache() while a job is running.
  std::mutex cache_mu_;
  std::unique_ptr<DatasetCache> cache_;

  /// First active job with unclaimed chunks, or null. Caller holds mu_.
  std::shared_ptr<ParallelJob> FindClaimableLocked();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  /// Every published, not-yet-drained job, in publish order — concurrent
  /// driver threads each contribute one entry. Guarded by mu_.
  std::vector<std::shared_ptr<ParallelJob>> active_jobs_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

namespace internal {
inline CounterRegistry& Counters(ExecutionContext& ctx) {
  return ctx.counters_;
}
}  // namespace internal

}  // namespace st4ml

#endif  // ST4ML_ENGINE_EXECUTION_CONTEXT_H_
