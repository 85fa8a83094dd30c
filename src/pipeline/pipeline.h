#ifndef ST4ML_PIPELINE_PIPELINE_H_
#define ST4ML_PIPELINE_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "common/status.h"
#include "engine/execution_context.h"

namespace st4ml {

namespace pipeline_internal {

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
inline Status PrefixStage(const std::string& stage, const Status& s) {
  std::string msg = "stage " + stage + ": " + s.message();
  switch (s.code()) {
    case Status::Code::kNotFound: return Status::NotFound(std::move(msg));
    case Status::Code::kCorruption: return Status::Corruption(std::move(msg));
    case Status::Code::kIOError: return Status::IOError(std::move(msg));
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    default: return Status::Internal(std::move(msg));
  }
}

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

}  // namespace pipeline_internal

/// The uniform front door to a Selection → Conversion → Extraction run.
/// A Pipeline opens one pipeline-category span for its whole lifetime, and
/// each Run(stage_name, fn, args...) executes `fn(args...)` under a
/// stage-category span — so with a tracer attached the trace nests
/// pipeline → stage → operation → task with no per-stage plumbing in the
/// application. Without a tracer every span is inert and Run is a plain
/// std::invoke.
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
/// the pipeline — check ok()/status() after the last stage (tools do, and
/// exit non-zero with the message instead of silently producing partial
/// output). Later stages still run if the caller passes them a failed
/// StatusOr; stages should short-circuit on their inputs as usual.
class Pipeline {
 public:
  Pipeline(std::shared_ptr<ExecutionContext> ctx, std::string name)
      : ctx_(std::move(ctx)),
        span_(ctx_->tracer(), span_category::kPipeline, std::move(name)) {}

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  ~Pipeline() { Finish(); }

  const std::shared_ptr<ExecutionContext>& context() const { return ctx_; }

  /// Closes the pipeline span (idempotent). Call before exporting a trace
  /// so the pipeline span carries its real duration instead of being
  /// clipped at export time.
  void Finish() { span_.End(); }

  /// True until a stage returns a non-ok Status/StatusOr.
  bool ok() const { return status_.ok(); }

  /// The first stage failure, or Ok. Stage names are in the status message's
  /// "stage <name>: " prefix.
  const Status& status() const { return status_; }

  /// Clears the latched stage failure so the SAME Pipeline can run further
  /// stages after one failed — a long-lived caller (the daemon's Session,
  /// a REPL) must not carry one request's error into the next. The pipeline
  /// span is left as-is: Reset rewinds the error latch, not the trace.
  void Reset() { status_ = Status(); }

  /// Runs `fn(args...)` as one named stage and returns its result.
  template <typename Fn, typename... Args>
  auto Run(const std::string& stage_name, Fn&& fn, Args&&... args) {
    using Result = std::invoke_result_t<Fn, Args...>;
    ScopedSpan stage(ctx_->tracer(), span_category::kStage, stage_name);
    uint64_t records_in = 0;
    bool have_in = false;
    if constexpr (sizeof...(Args) > 0) {
      records_in =
          pipeline_internal::CountOf(pipeline_internal::FirstArg(args...),
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
      uint64_t records_out = pipeline_internal::CountOf(result, &have_out);
      if (have_out) stage.AddArg("records_out", records_out);
      if constexpr (requires { result.ok(); }) {
        if (!result.ok()) {
          stage.AddArg("failed", 1);
          if (status_.ok()) {
            status_ = pipeline_internal::PrefixStage(
                stage_name, pipeline_internal::StatusOf(result));
          }
        }
      }
      AccountStage(stage_name, have_in, records_in, have_out, records_out);
      return result;
    }
  }

 private:
  void AccountStage(const std::string& stage_name, bool have_in,
                    uint64_t records_in, bool have_out,
                    uint64_t records_out) {
    CounterRegistry& counters = internal::Counters(*ctx_);
    if (stage_name == "conversion") {
      if (have_in) counters.Add(Counter::kConversionRecordsIn, records_in);
      if (have_out) counters.Add(Counter::kConversionRecordsOut, records_out);
    } else if (stage_name == "extraction") {
      if (have_in) counters.Add(Counter::kExtractionRecordsIn, records_in);
      if (have_out) counters.Add(Counter::kExtractionRecordsOut, records_out);
    }
  }

  std::shared_ptr<ExecutionContext> ctx_;
  ScopedSpan span_;
  Status status_;
};

}  // namespace st4ml

#endif  // ST4ML_PIPELINE_PIPELINE_H_
