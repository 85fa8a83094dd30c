#ifndef ST4ML_PIPELINE_SESSION_H_
#define ST4ML_PIPELINE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "common/status.h"
#include "engine/execution_context.h"

namespace st4ml {

/// The option set every entry point shares — the four batch CLIs, the
/// st4mld daemon, tests and benches all parse their knobs into ONE of these
/// and hand it to Session::Configure, instead of each re-implementing
/// --cache-budget / --trace / --metrics-json plumbing.
struct ToolOptions {
  /// When false the context keeps its current cache (a fresh context's
  /// is disabled).
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
/// ToolOptions. A batch CLI owns one Session for its single Job; the
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
  /// (its counter scope is thread-local): run its stages and Finish() it
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

namespace job_internal {

/// Extracts the Status from a stage result that carries one (a Status
/// itself, or any StatusOr). Only instantiated for types where ok() exists.
template <typename T>
Status StatusOf(const T& value) {
  if constexpr (std::is_same_v<std::decay_t<T>, Status>) {
    return value;
  } else {
    return value.status();
  }
}

/// Same code, message prefixed with the failing stage's name.
Status PrefixStage(const std::string& stage, const Status& s);

/// Best-effort record count of a stage input or output. Understands
/// Datasets (Count), collective structures and containers (size), and
/// StatusOr wrappers (count the value when ok). Sets *counted to whether a
/// count was actually obtainable.
template <typename T>
uint64_t CountOf(const T& value, bool* counted) {
  if constexpr (requires { value.Count(); }) {
    *counted = true;
    return static_cast<uint64_t>(value.Count());
  } else if constexpr (requires { value.size(); }) {
    *counted = true;
    return static_cast<uint64_t>(value.size());
  } else if constexpr (requires {
                         value.ok();
                         *value;
                       }) {
    if (value.ok()) return CountOf(*value, counted);
    *counted = false;
    return 0;
  } else {
    *counted = false;
    return 0;
  }
}

template <typename A, typename... Rest>
const A& FirstArg(const A& a, const Rest&...) {
  return a;
}

}  // namespace job_internal

/// One Selection → Conversion → Extraction run inside a Session. A Job owns
/// a private CounterRegistry that receives an exact copy of every counter
/// delta the job causes (via the thread-local ScopedJobCounters sink, which
/// the engine re-installs on worker threads running this job's chunks) and a
/// job-category root span. Each Run(stage_name, fn, args...) executes
/// `fn(args...)` under a stage-category span, so with a tracer attached the
/// trace nests job → stage → operation → task with no per-stage plumbing in
/// the application; without one every span is inert and Run is a plain
/// std::invoke. Concurrent Jobs on one Session therefore share the
/// scheduler and the cache but never interleave counters or spans.
///
/// Stage spans are annotated with records_in (from the first countable
/// argument) and records_out (from a countable result; StatusOr results are
/// counted when ok). The canonical stage names "conversion" and
/// "extraction" additionally feed the per-stage record counters; the
/// selection counters are owned by the Selector itself, which knows the
/// exact post-filter record and byte counts.
///
/// Failure surfacing: when a stage returns a Status or StatusOr that is not
/// ok, its span gets a `failed` arg and the FIRST such status is latched on
/// the job — check ok()/status() after the last stage (tools do, and exit
/// non-zero with the message instead of silently producing partial
/// output). Later stages still run if the caller passes them a failed
/// StatusOr; stages should short-circuit on their inputs as usual. A
/// long-lived caller (the daemon) starts a fresh Job per request, so one
/// request's error never reaches the next.
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

  /// This job's own counter deltas — unaffected by sibling jobs.
  MetricsSnapshot Metrics() const { return counters_->Snapshot(); }

  /// True until a stage returns a non-ok Status/StatusOr.
  bool ok() const { return status_.ok(); }

  /// The first stage failure, or Ok. Stage names are in the status message's
  /// "stage <name>: " prefix.
  const Status& status() const { return status_; }

  /// Runs `fn(args...)` as one named stage and returns its result.
  template <typename Fn, typename... Args>
  auto Run(const std::string& stage_name, Fn&& fn, Args&&... args) {
    using Result = std::invoke_result_t<Fn, Args...>;
    ScopedSpan stage(ctx_->tracer(), span_category::kStage, stage_name);
    uint64_t records_in = 0;
    bool have_in = false;
    if constexpr (sizeof...(Args) > 0) {
      records_in = job_internal::CountOf(job_internal::FirstArg(args...),
                                         &have_in);
    }
    if (have_in) stage.AddArg("records_in", records_in);
    if constexpr (std::is_void_v<Result>) {
      std::invoke(std::forward<Fn>(fn), std::forward<Args>(args)...);
      AccountStage(stage_name, have_in, records_in, false, 0);
    } else {
      Result result =
          std::invoke(std::forward<Fn>(fn), std::forward<Args>(args)...);
      bool have_out = false;
      uint64_t records_out = job_internal::CountOf(result, &have_out);
      if (have_out) stage.AddArg("records_out", records_out);
      if constexpr (requires { result.ok(); }) {
        if (!result.ok()) {
          stage.AddArg("failed", 1);
          if (status_.ok()) {
            status_ = job_internal::PrefixStage(
                stage_name, job_internal::StatusOf(result));
          }
        }
      }
      AccountStage(stage_name, have_in, records_in, have_out, records_out);
      return result;
    }
  }

  /// Closes the job span and uninstalls the job counter scope (idempotent;
  /// the destructor calls it). After Finish() the job's metrics are final
  /// and the thread's counter attribution reverts to whatever enclosed the
  /// job.
  void Finish();

 private:
  friend class Session;
  Job(std::shared_ptr<ExecutionContext> ctx, std::string name, uint64_t id);

  /// Feeds the conversion/extraction record counters for the canonical
  /// stage names; other stages count nothing here.
  void AccountStage(const std::string& stage_name, bool have_in,
                    uint64_t records_in, bool have_out, uint64_t records_out);

  std::shared_ptr<ExecutionContext> ctx_;
  std::string name_;
  uint64_t id_ = 0;
  Status status_;
  // Order matters: the guard and span must die before the registry, and
  // Finish() tears down in reverse-construction order.
  std::unique_ptr<CounterRegistry> counters_;
  std::unique_ptr<ScopedJobCounters> scope_;
  std::unique_ptr<ScopedSpan> root_;
};

}  // namespace st4ml

#endif  // ST4ML_PIPELINE_SESSION_H_
