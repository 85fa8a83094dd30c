#ifndef ST4ML_ACCEL_KERNELS_H_
#define ST4ML_ACCEL_KERNELS_H_

// The ST-box filter kernel behind a runtime CPU backend registry
// (DESIGN.md §11). Selection refines records by testing each envelope
// against the query box; this layer runs that test as one batch kernel over
// SoA envelope columns. The scalar backend defines the exact semantics and
// the AVX2 backend (selected at runtime via CPUID) must reproduce its
// outputs BIT-FOR-BIT. The differential property harness
// (tests/common/property.h) and bench_simd's built-in comparison gate pin
// that contract: a backend is a speedup, never a different answer.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/stbox.h"

namespace st4ml {
namespace accel {

/// An ST query against envelope columns, flattened from an STBox. Closed
/// intervals on every axis, exactly like STBox::Intersects. The CALLER is
/// responsible for the query-side emptiness check (an inverted query box
/// matches nothing); the kernel folds the record-side emptiness check into
/// its predicate. FromBox copies the fields out of an STBox.
struct BoxFilterQuery {
  double x_min = 0.0;
  double y_min = 0.0;
  double x_max = 0.0;
  double y_max = 0.0;
  int64_t t_min = 0;
  int64_t t_max = 0;

  static BoxFilterQuery FromBox(const STBox& box) {
    return BoxFilterQuery{box.mbr.x_min, box.mbr.y_min, box.mbr.x_max,
                          box.mbr.y_max, box.time.start(), box.time.end()};
  }
};

/// A borrowed view over per-record envelope columns (SoA): record i's ST
/// envelope is ([x_min[i], x_max[i]] x [y_min[i], y_max[i]]) over
/// [t_min[i], t_max[i]]. Point records (events) simply have min == max.
/// No alignment requirement — kernels handle unaligned bases and tails.
struct EnvelopeView {
  const double* x_min = nullptr;
  const double* y_min = nullptr;
  const double* x_max = nullptr;
  const double* y_max = nullptr;
  const int64_t* t_min = nullptr;
  const int64_t* t_max = nullptr;
  size_t size = 0;
};

/// Owning envelope columns, materialized ONCE per partition (one
/// ComputeSTBox pass) and then filtered per query by the batch kernel —
/// the Selector stores these alongside its cached R-tree so a warm daemon
/// query refines columns directly instead of recomputing every record's
/// envelope (the old per-query ComputeSTBox loop).
class EnvelopeColumns {
 public:
  void Reserve(size_t n) {
    x_min_.reserve(n);
    y_min_.reserve(n);
    x_max_.reserve(n);
    y_max_.reserve(n);
    t_min_.reserve(n);
    t_max_.reserve(n);
  }

  void Append(const STBox& box) {
    x_min_.push_back(box.mbr.x_min);
    y_min_.push_back(box.mbr.y_min);
    x_max_.push_back(box.mbr.x_max);
    y_max_.push_back(box.mbr.y_max);
    t_min_.push_back(box.time.start());
    t_max_.push_back(box.time.end());
  }

  size_t size() const { return x_min_.size(); }
  bool empty() const { return x_min_.empty(); }

  EnvelopeView View() const {
    return EnvelopeView{x_min_.data(), y_min_.data(), x_max_.data(),
                        y_max_.data(), t_min_.data(), t_max_.data(),
                        x_min_.size()};
  }

 private:
  std::vector<double> x_min_, y_min_, x_max_, y_max_;
  std::vector<int64_t> t_min_, t_max_;
};

/// One CPU kernel backend. Implementations are stateless and thread-safe,
/// and FilterBoxes writes exactly its output range and nothing else. The
/// scalar body in backend_scalar.cc IS the semantics; the AVX2 backend is
/// pinned byte-identical to it.
class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  /// "scalar" or "avx2" — the ST4ML_BACKEND / --backend vocabulary.
  virtual const char* name() const = 0;

  /// hits[i] = 1 iff record i's envelope is non-empty and intersects `q`
  /// (same closed-interval predicate as STBox::Intersects with the
  /// query-side emptiness test hoisted to the caller), else 0. NaN
  /// coordinates never match, exactly as in the scalar predicate.
  virtual void FilterBoxes(const BoxFilterQuery& q, const EnvelopeView& boxes,
                           uint8_t* hits) const = 0;
};

/// The process-wide backend registry: knows every compiled-in backend,
/// filters them by runtime CPU support (CPUID via __builtin_cpu_supports),
/// and picks the active one — best available by default, overridable with
/// ST4ML_BACKEND=scalar|avx2 or programmatically (the tools' --backend
/// flag, the property harness's per-seed randomization). Also the home of
/// the two batch-dispatch counters the observability layer surfaces.
class BackendRegistry {
 public:
  static BackendRegistry& Instance();

  /// The active backend. Never null — scalar is always compiled in.
  const KernelBackend& backend() const {
    return *active_.load(std::memory_order_acquire);
  }
  const char* active_name() const { return backend().name(); }

  /// Every compiled-in backend the running CPU supports, scalar first.
  const std::vector<const KernelBackend*>& Available() const {
    return available_;
  }

  /// Registered backend by name, or null when not compiled in / not
  /// supported by this CPU.
  const KernelBackend* Find(const std::string& name) const;

  /// Forces the active backend ("" restores the automatic choice: the
  /// ST4ML_BACKEND env override when set and valid, else the best
  /// available). InvalidArgument for names that are unknown, not compiled
  /// in, or not supported by this CPU. Thread-safe, but meant for startup
  /// and test seams — not for flipping mid-pipeline.
  Status ForceBackend(const std::string& name);

  /// Batch-dispatch observability: CountBatch is one FilterBoxes
  /// invocation over `records` envelopes. Surfaced by the st4mld `stats`
  /// verb and the per-stage stderr summary.
  void CountBatch(uint64_t records) const {
    batches_.fetch_add(1, std::memory_order_relaxed);
    batch_records_.fetch_add(records, std::memory_order_relaxed);
  }
  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  uint64_t batch_records() const {
    return batch_records_.load(std::memory_order_relaxed);
  }

 private:
  BackendRegistry();

  const KernelBackend* AutoChoice() const;

  std::vector<const KernelBackend*> available_;
  std::atomic<const KernelBackend*> active_{nullptr};
  mutable std::atomic<uint64_t> batches_{0};
  mutable std::atomic<uint64_t> batch_records_{0};
};

/// Shorthand for the hot paths: the currently active backend.
inline const KernelBackend& Active() {
  return BackendRegistry::Instance().backend();
}

/// Refines `positions` (indices into `cols`, e.g. an id lookup's
/// candidates) in place to those whose envelope passes `q`, keeping their
/// order: gathers the candidates' envelopes into a small SoA batch and runs
/// ONE pass of the active kernel over it, counted as one batch of
/// `positions->size()` records. The query-side emptiness test stays with
/// the caller, as for FilterBoxes.
void FilterPositions(const BoxFilterQuery& q, const EnvelopeView& cols,
                     std::vector<uint32_t>* positions);

/// Backend factories (one .cc each, so only backend_avx2.cc is compiled
/// with -mavx2). Avx2Backend returns null when AVX2 is not compiled in.
const KernelBackend* ScalarBackend();
const KernelBackend* Avx2Backend();

}  // namespace accel
}  // namespace st4ml

#endif  // ST4ML_ACCEL_KERNELS_H_
