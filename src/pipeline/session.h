#ifndef ST4ML_PIPELINE_SESSION_H_
#define ST4ML_PIPELINE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "engine/execution_context.h"
#include "pipeline/pipeline.h"

namespace st4ml {

/// The option set every entry point shares — the four batch CLIs, the
/// st4mld daemon, tests and benches all parse their knobs into ONE of these
/// and hand it to Session::Configure, instead of each re-implementing
/// --cache-budget / --trace / --metrics-json plumbing.
struct ToolOptions {
  /// When false the context keeps its default budget (the
  /// ST4ML_CACHE_BUDGET_BYTES env knob; off when unset).
  bool has_cache_budget = false;
  /// Explicit budget: 0 disables the cache, negative means unbounded.
  int64_t cache_budget_bytes = 0;
  /// Non-empty: attach a Tracer and write a Chrome-trace JSON here on
  /// ExportArtifacts.
  std::string trace_path;
  /// Non-empty: write the flat metrics JSON here on ExportArtifacts.
  std::string metrics_json_path;
  /// 0 sizes the worker pool to the hardware.
  int num_workers = 0;
  /// Non-empty: force the accel kernel backend ("scalar" | "avx2")
  /// instead of the automatic choice (the ST4ML_BACKEND env knob,
  /// else the widest ISA this CPU supports). An unknown or unsupported
  /// name surfaces on Session::configure_status() so tools can refuse to
  /// start instead of silently computing on the wrong backend.
  std::string backend;
};

class Job;

/// One long-lived engine instance: a warm ExecutionContext (worker pool +
/// DatasetCache + counters) with its tracer and cache wired from a
/// ToolOptions. A batch CLI owns one Session for its single pipeline; the
/// daemon owns one Session for its whole lifetime and starts one Job per
/// request — every Job shares the session's scheduler and cache, which is
/// exactly what makes the second request warm.
///
/// Thread safety: Configure and ExportArtifacts are for the owning thread;
/// StartJob may be called from any thread (the daemon's per-connection
/// workers do), and concurrent Jobs are isolated — see Job.
class Session {
 public:
  /// Creates a fresh context sized per `options` and configures it.
  explicit Session(const ToolOptions& options = {});
  /// Adopts an existing context (tests that pre-build one).
  explicit Session(std::shared_ptr<ExecutionContext> ctx);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Applies cache budget, tracer wiring and the accel backend override
  /// from `options` and remembers the export paths. Call between jobs, not
  /// while one is in flight. Errors (an unknown --backend) land on
  /// configure_status() rather than a return value so the constructor can
  /// share the path.
  void Configure(const ToolOptions& options);

  /// OK unless the last Configure was handed an invalid option (currently:
  /// an unknown or unsupported backend name). Tools check this right after
  /// constructing the Session and exit non-zero on failure.
  const Status& configure_status() const { return configure_status_; }

  const std::shared_ptr<ExecutionContext>& context() const { return ctx_; }
  Tracer* tracer() const { return ctx_->tracer(); }

  /// Session-wide cumulative counters (every job, plus engine work done
  /// outside any job). Per-job deltas live on the Job.
  MetricsSnapshot Metrics() const { return ctx_->MetricsSnapshot(); }

  /// Jobs handed out so far (monotonic; also each Job's id).
  uint64_t jobs_started() const {
    return next_job_id_.load(std::memory_order_relaxed) - 1;
  }

  /// Opens a new Job named `name`. The Job is bound to the CALLING thread
  /// (its counter scope is thread-local): run its pipeline and Finish() it
  /// on that same thread.
  Job StartJob(std::string name);

  /// Writes the configured artifacts (Chrome trace, metrics JSON) and, when
  /// tracing, the per-stage summary table to `summary_out`. Returns false
  /// after reporting on stderr if any write fails, so tools can exit
  /// non-zero. A no-op Session (no paths configured) returns true.
  bool ExportArtifacts(const char* tool, std::FILE* summary_out = stderr);

 private:
  std::shared_ptr<ExecutionContext> ctx_;
  ToolOptions options_;
  Status configure_status_;
  std::atomic<uint64_t> next_job_id_{1};
};

/// One pipeline run inside a Session: owns a private CounterRegistry that
/// receives an exact copy of every counter delta the job causes (via the
/// thread-local ScopedJobCounters sink, which the engine re-installs on
/// worker threads running this job's chunks), a job-category root span under
/// which the whole pipeline → stage → operation → task tree nests, and the
/// Pipeline facade itself. Concurrent Jobs on one Session therefore share
/// the scheduler and the cache but never interleave counters or spans.
///
/// Move-only and THREAD-BOUND: create, drive, and Finish/destroy a Job on
/// one thread. Metrics() may be read from anywhere after Finish().
class Job {
 public:
  Job(Job&&) = default;
  Job& operator=(Job&&) = delete;
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  ~Job() { Finish(); }

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }

  /// The stage runner for this job; alive until Finish().
  Pipeline& pipeline() { return *pipeline_; }

  /// This job's own counter deltas — unaffected by sibling jobs.
  MetricsSnapshot Metrics() const { return counters_->Snapshot(); }

  bool ok() const { return pipeline_->ok(); }
  const Status& status() const { return pipeline_->status(); }

  /// Closes the pipeline and job spans and uninstalls the job counter
  /// scope (idempotent; the destructor calls it). After Finish() the job's
  /// metrics are final and the thread's counter attribution reverts to
  /// whatever enclosed the job.
  void Finish();

 private:
  friend class Session;
  Job(std::shared_ptr<ExecutionContext> ctx, std::string name, uint64_t id);

  std::shared_ptr<ExecutionContext> ctx_;
  std::string name_;
  uint64_t id_ = 0;
  // Order matters: the guard and spans must die before the registry, and
  // Finish() tears down in reverse-construction order.
  std::unique_ptr<CounterRegistry> counters_;
  std::unique_ptr<ScopedJobCounters> scope_;
  std::unique_ptr<ScopedSpan> root_;
  std::unique_ptr<Pipeline> pipeline_;
};

}  // namespace st4ml

#endif  // ST4ML_PIPELINE_SESSION_H_
