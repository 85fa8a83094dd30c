#include "engine/execution_context.h"

#include <algorithm>

#include "common/env.h"
#include "common/fault_injector.h"

namespace st4ml {

std::shared_ptr<ExecutionContext> ExecutionContext::Create() {
  unsigned hw = std::thread::hardware_concurrency();
  return Create(hw == 0 ? 1 : static_cast<int>(hw));
}

std::shared_ptr<ExecutionContext> ExecutionContext::Create(int num_workers) {
  return std::shared_ptr<ExecutionContext>(
      new ExecutionContext(std::max(1, num_workers)));
}

ExecutionContext::ExecutionContext(int num_workers)
    : num_workers_(num_workers) {
  // A one-worker pool never uses pool threads (RunParallelImpl runs count
  // == 1 jobs inline and a one-worker claim loop IS the caller), so spawn
  // none rather than park an idle thread for the context's lifetime.
  if (num_workers_ == 1) return;
  workers_.reserve(num_workers_);
  for (int i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ExecutionContext::~ExecutionContext() {
  // RunParallel blocks its caller until the job drains (even a failed job
  // drains — skipped chunks are accounted into done), so no job can still
  // be in flight when the owner destroys the context.
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ExecutionContext::set_tracer(std::shared_ptr<Tracer> tracer) {
  tracer_owned_ = std::move(tracer);
  tracer_.store(tracer_owned_.get(), std::memory_order_release);
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (cache_ != nullptr) cache_->set_tracer(tracer_owned_.get());
}

DatasetCache& ExecutionContext::cache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (cache_ == nullptr) {
    DatasetCache::Options options;
    int64_t budget = GetEnvInt("ST4ML_CACHE_BUDGET_BYTES", 0);
    options.budget_bytes = budget < 0 ? DatasetCache::kUnbounded
                                      : static_cast<uint64_t>(budget);
    cache_ = std::make_unique<DatasetCache>(std::move(options), &counters_);
    cache_->set_tracer(tracer());
  }
  return *cache_;
}

void ExecutionContext::ConfigureCache(DatasetCache::Options options) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_ = std::make_unique<DatasetCache>(std::move(options), &counters_);
  cache_->set_tracer(tracer());
}

void ExecutionContext::FailJob(ParallelJob* job, Status status,
                               std::exception_ptr exception) {
  job->counters->Add(Counter::kTasksFailed, 1);
  std::lock_guard<std::mutex> lock(job->error_mu);
  if (job->failed.load(std::memory_order_relaxed)) return;
  job->error = std::move(status);
  job->exception = std::move(exception);
  job->failed.store(true, std::memory_order_release);
}

void ExecutionContext::RunChunkBody(ParallelJob* job, size_t start,
                                    size_t end) {
  for (size_t i = start; i < end; ++i) {
    // Another task failed while this chunk was running: stop early. The
    // whole chunk was already accounted by the caller.
    if (job->failed.load(std::memory_order_acquire)) return;
    Status status;
    std::exception_ptr exception;
    try {
      status = (*job->fn)(i);
    } catch (const StatusError& e) {
      status = e.status();
      exception = std::current_exception();
    } catch (const std::exception& e) {
      status = Status::Internal(std::string("task threw: ") + e.what());
      exception = std::current_exception();
    } catch (...) {
      status = Status::Internal("task threw a non-std exception");
      exception = std::current_exception();
    }
    if (!status.ok()) {
      FailJob(job, std::move(status), std::move(exception));
      return;
    }
  }
}

size_t ExecutionContext::RunChunks(ParallelJob* job) {
  // Attribute everything this thread does for the job — chunk claims, task
  // failures, counters bumped inside the task fn (cache hits, retries) — to
  // the job's own registry. On the driver this re-installs the sink that is
  // already current; on a worker it scopes the publisher's sink to exactly
  // this job's chunks.
  ScopedJobCounters job_scope(job->job_counters);
  size_t processed = 0;
  for (;;) {
    size_t start = job->next.fetch_add(job->chunk, std::memory_order_relaxed);
    if (start >= job->count) break;
    size_t end = std::min(start + job->chunk, job->count);
    job->counters->Add(Counter::kChunkClaims, 1);
    if (job->failed.load(std::memory_order_acquire)) {
      // Claim-and-drop: the job already failed, so the chunk is not run but
      // IS accounted, keeping done == count reachable for the driver.
      processed += end - start;
      continue;
    }
    Status injected =
        GlobalFaultInjector().MaybeFail(fault_site::kTaskRun);
    if (!injected.ok()) {
      job->counters->Add(Counter::kFaultsInjected, 1);
      FailJob(job, std::move(injected), nullptr);
      processed += end - start;
      continue;
    }
    if (job->tracer != nullptr) {
      ScopedSpan task(job->tracer, span_category::kTask, "chunk",
                      job->op_span);
      task.AddArg("first_index", start);
      task.AddArg("num_indices", end - start);
      RunChunkBody(job, start, end);
    } else {
      RunChunkBody(job, start, end);
    }
    processed += end - start;
  }
  return processed;
}

std::shared_ptr<ExecutionContext::ParallelJob>
ExecutionContext::FindClaimableLocked() {
  for (const std::shared_ptr<ParallelJob>& job : active_jobs_) {
    if (job->next.load(std::memory_order_relaxed) < job->count) return job;
  }
  return nullptr;
}

void ExecutionContext::WorkerLoop() {
  for (;;) {
    std::shared_ptr<ParallelJob> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        if (shutdown_) return true;
        job = FindClaimableLocked();
        return job != nullptr;
      });
      // Shutdown requires every driver to have drained first (RunParallel
      // blocks its caller), so a null job here can only mean "exit".
      if (job == nullptr) return;
    }
    size_t processed = RunChunks(job.get());
    if (processed > 0 &&
        job->done.fetch_add(processed, std::memory_order_acq_rel) +
                processed ==
            job->count) {
      // Notify under the lock so the driver can't check the predicate and
      // sleep between our fetch_add and the notify.
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

Status ExecutionContext::RunParallelImpl(
    const char* name, size_t count, const std::function<Status(size_t)>& fn,
    std::exception_ptr* exception_out) {
  if (count == 0) return Status::Ok();
  counters_.Add(Counter::kParallelJobs, 1);
  Tracer* tracer = this->tracer();
  ScopedSpan op(tracer, span_category::kOperation, name);
  auto job = std::make_shared<ParallelJob>();
  job->fn = &fn;
  job->count = count;
  job->counters = &counters_;
  job->job_counters = internal::tls_job_counters;
  job->tracer = tracer;
  job->op_span = op.id();
  if (count == 1 || num_workers_ == 1) {
    // Run inline: no handoff latency, and safe under re-entrancy. The
    // whole range is one chunk, so this counts as one claimed chunk —
    // traced/untraced and pooled/inline runs agree on what a "claim" is
    // per job shape.
    job->chunk = count;
    RunChunks(job.get());
  } else {
    // ~8 chunks per worker: coarse enough that tiny partitions amortize
    // the claim fetch_add, fine enough that skewed ones still rebalance.
    job->chunk =
        std::max<size_t>(1, count / (static_cast<size_t>(num_workers_) * 8));
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_jobs_.push_back(job);
    }
    work_cv_.notify_all();

    // The driver claims chunks too instead of idling.
    size_t processed = RunChunks(job.get());
    if (processed > 0) {
      job->done.fetch_add(processed, std::memory_order_acq_rel);
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == job->count;
    });
    // Retire the drained job. A worker that still holds a shared_ptr to it
    // claims nothing (next >= count) and never touches fn again.
    active_jobs_.erase(
        std::find(active_jobs_.begin(), active_jobs_.end(), job));
  }
  if (!job->failed.load(std::memory_order_acquire)) return Status::Ok();
  op.AddArg("failed", 1);
  // done == count implies no task can still be inside FailJob's critical
  // section for THIS error (it was set before failed flipped), but take the
  // lock anyway: a straggler losing the first-error race may still be
  // writing nothing — the mutex makes the read unconditionally clean.
  std::lock_guard<std::mutex> lock(job->error_mu);
  if (exception_out != nullptr) *exception_out = job->exception;
  return job->error;
}

void ExecutionContext::RunParallel(const char* name, size_t count,
                                   const std::function<void(size_t)>& fn) {
  std::function<Status(size_t)> wrapped = [&fn](size_t i) {
    fn(i);
    return Status::Ok();
  };
  std::exception_ptr exception;
  Status status = RunParallelImpl(name, count, wrapped, &exception);
  if (status.ok()) return;
  // Surface the worker's failure on the driver: the original exception when
  // there was one, its Status form otherwise (e.g. an injected task fault).
  if (exception != nullptr) std::rethrow_exception(exception);
  throw StatusError(std::move(status));
}

}  // namespace st4ml
