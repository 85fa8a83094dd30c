#ifndef ST4ML_COMMON_FAULT_INJECTOR_H_
#define ST4ML_COMMON_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "common/status.h"

namespace st4ml {

/// Instrumented failure points. Each site is one MaybeFail call in library
/// code; tests arm them by name.
namespace fault_site {
/// Checked once per claimed chunk in ExecutionContext::RunChunks — a fired
/// fault fails the running job exactly like a task that returned an error.
inline constexpr const char* kTaskRun = "engine/task";
/// Checked once per StpqReader read (ReadRuns, ReadAll) — a fired fault is
/// a transient IOError, which is what RetryPolicy retries.
inline constexpr const char* kStpqRead = "stpq/read";
/// Checked on entry to the STPQ writers (PersistDataset / BuildOnDiskIndex
/// go through them).
inline constexpr const char* kStpqWrite = "stpq/write";
/// Checked before a WAL frame write — a fired fault means the record was
/// NEVER acked and must not appear after replay.
inline constexpr const char* kWalAppend = "wal/append";
/// Checked at the start of a segment seal (fsync + rename): a fired fault
/// leaves the segment `.open`, still replayable.
inline constexpr const char* kWalSeal = "wal/seal";
/// Checked at the start of a compaction cycle: a fired fault leaves every
/// sealed segment in place for the next cycle to retry.
inline constexpr const char* kIngestCompact = "ingest/compact";
}  // namespace fault_site

/// Deterministic fault injection for robustness tests and chaos runs
/// (DESIGN.md §8). OFF by default: the unarmed fast path is a single
/// relaxed atomic load, so production call sites pay nothing measurable.
///
/// Two arming modes, per site:
///  - scripted: FailNext(site, n) fails the next n MaybeFail calls at that
///    site — the tool for "exactly one transient failure, then recover"
///    tests;
///  - seeded-probabilistic: ArmProbabilistic(site, p, seed) fails each call
///    with probability p drawn from a splitmix64 stream, so a given seed
///    reproduces the same failure pattern run-to-run.
///
/// Thread-safe: MaybeFail is called from worker threads (task-run and STPQ
/// read/write boundaries); armed-path state is guarded by one mutex, which
/// is fine because injection is a test-only regime.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Returns IOError("injected fault ...") when a fault fires at `site`,
  /// OK otherwise. `detail` (a path, a task name) is appended to the error.
  Status MaybeFail(const char* site, const std::string& detail = "");

  /// Scripted mode: the next `times` MaybeFail calls at `site` fail.
  void FailNext(const std::string& site, int times);

  /// Probabilistic mode: each MaybeFail at `site` fails with probability
  /// `probability`, deterministically derived from `seed`.
  void ArmProbabilistic(const std::string& site, double probability,
                        uint64_t seed);

  /// Disarms every site and zeroes the injected count.
  void Reset();

  /// How many faults have fired since construction or the last Reset.
  uint64_t injected_count() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  struct SiteState {
    int fail_next = 0;
    double probability = 0.0;
    Rng rng{0};
  };

  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> injected_{0};
  mutable std::mutex mu_;
  std::unordered_map<std::string, SiteState> sites_;
};

/// The process-wide injector every library hook consults. Starts disarmed;
/// tests arm it in code.
FaultInjector& GlobalFaultInjector();

}  // namespace st4ml

#endif  // ST4ML_COMMON_FAULT_INJECTOR_H_
