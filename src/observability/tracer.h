#ifndef ST4ML_OBSERVABILITY_TRACER_H_
#define ST4ML_OBSERVABILITY_TRACER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stopwatch.h"

namespace st4ml {

/// Span categories, ordered from coarse to fine. They double as the `cat`
/// field of the Chrome trace export, so Perfetto can filter by level.
namespace span_category {
inline constexpr const char* kJob = "job";
inline constexpr const char* kStage = "stage";
inline constexpr const char* kOperation = "operation";
inline constexpr const char* kTask = "task";
inline constexpr const char* kIo = "io";
}  // namespace span_category

/// One recorded span. Times are microseconds since the tracer's epoch
/// (construction); `end_us < 0` marks a span that is still open.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root (no parent)
  std::string name;
  const char* category = span_category::kOperation;
  uint32_t tid = 0;  // dense per-tracer thread index, 0 = first seen
  int64_t start_us = 0;
  int64_t end_us = -1;
  /// Numeric annotations (records, bytes, chunk claims, ...), exported as
  /// the Chrome trace event's "args" object.
  std::vector<std::pair<std::string, uint64_t>> args;
};

/// Collects nested spans (job → stage → operation → per-worker task)
/// with wall-clock timestamps. Thread-safe: Begin/End/AddArg may be called
/// from any thread (worker task spans are), guarded by one mutex — spans
/// are rare next to the per-record work they bracket.
///
/// Tracing is OFF unless an ExecutionContext is given a Tracer; every
/// instrumentation site checks a raw pointer and no-ops on nullptr, so the
/// disabled cost is one predictable branch per *operation* (never per
/// record). The current-span stack (auto-parenting for ScopedSpan) is kept
/// PER THREAD: each driver thread — a CLI main, or one daemon connection
/// running its own Job — parents its scoped spans under its own open spans
/// only, so concurrent jobs sharing one tracer never interleave their span
/// trees. Worker-task spans use explicit parents and touch no stack.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span under an explicit parent (0 for root). Returns its id.
  uint64_t BeginSpan(const char* category, std::string name,
                     uint64_t parent) {
    int64_t now = clock_.ElapsedMicros();
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.name = std::move(name);
    span.category = category;
    span.tid = ThreadIndexLocked();
    span.start_us = now;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  /// Opens a span under the CALLING THREAD's current span and makes it this
  /// thread's current.
  uint64_t BeginScopedSpan(const char* category, std::string name) {
    int64_t now = clock_.ElapsedMicros();
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<uint64_t>& current = CurrentStackLocked();
    SpanRecord span;
    span.id = spans_.size() + 1;
    span.parent = current.empty() ? 0 : current.back();
    span.name = std::move(name);
    span.category = category;
    span.tid = ThreadIndexLocked();
    span.start_us = now;
    spans_.push_back(std::move(span));
    current.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void EndSpan(uint64_t id) {
    int64_t now = clock_.ElapsedMicros();
    std::lock_guard<std::mutex> lock(mu_);
    if (id == 0 || id > spans_.size()) return;
    spans_[id - 1].end_us = now;
    std::vector<uint64_t>& current = CurrentStackLocked();
    if (!current.empty() && current.back() == id) current.pop_back();
  }

  void AddSpanArg(uint64_t id, std::string key, uint64_t value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (id == 0 || id > spans_.size()) return;
    spans_[id - 1].args.emplace_back(std::move(key), value);
  }

  /// The innermost open span of the CALLING THREAD, for explicit parenting
  /// of spans created on worker threads. 0 when this thread has none open.
  uint64_t CurrentSpan() const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = current_.find(std::this_thread::get_id());
    return it == current_.end() || it->second.empty() ? 0 : it->second.back();
  }

  /// Copies every span recorded so far. Open spans keep end_us = -1; the
  /// exporter closes them at export time.
  std::vector<SpanRecord> Spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Microseconds since the tracer's epoch — the exporter's "now".
  int64_t NowMicros() const { return clock_.ElapsedMicros(); }

 private:
  uint32_t ThreadIndexLocked() {
    auto [it, inserted] =
        tids_.emplace(std::this_thread::get_id(),
                      static_cast<uint32_t>(tids_.size()));
    return it->second;
  }

  std::vector<uint64_t>& CurrentStackLocked() {
    return current_[std::this_thread::get_id()];
  }

  Stopwatch clock_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  /// Per-thread open-span stacks (one per driver thread; worker task spans
  /// never push). Bounded by thread count, never cleared — spans outlive
  /// the threads that opened them, the stacks are just parents-in-progress.
  std::unordered_map<std::thread::id, std::vector<uint64_t>> current_;
  std::unordered_map<std::thread::id, uint32_t> tids_;
};

/// RAII span. Default-constructed or built against a null tracer it is
/// inert — the no-op tracer instrumentation sites rely on.
///
/// Two parenting modes:
///  - ScopedSpan(tracer, cat, name): parent = tracer's current span, and
///    this span becomes current until destruction. Driver thread only.
///  - ScopedSpan(tracer, cat, name, parent): explicit parent, does not
///    touch the current stack — safe from worker threads (task spans).
class ScopedSpan {
 public:
  ScopedSpan() = default;

  ScopedSpan(Tracer* tracer, const char* category, std::string name)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      id_ = tracer_->BeginScopedSpan(category, std::move(name));
    }
  }

  ScopedSpan(Tracer* tracer, const char* category, std::string name,
             uint64_t parent)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      id_ = tracer_->BeginSpan(category, std::move(name), parent);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { End(); }

  /// Ends the span early (idempotent; the destructor is then a no-op).
  void End() {
    if (tracer_ != nullptr && id_ != 0) {
      tracer_->EndSpan(id_);
      id_ = 0;
    }
  }

  void AddArg(std::string key, uint64_t value) {
    if (tracer_ != nullptr && id_ != 0) {
      tracer_->AddSpanArg(id_, std::move(key), value);
    }
  }

  uint64_t id() const { return id_; }
  bool active() const { return tracer_ != nullptr && id_ != 0; }

 private:
  Tracer* tracer_ = nullptr;
  uint64_t id_ = 0;
};

}  // namespace st4ml

#endif  // ST4ML_OBSERVABILITY_TRACER_H_
