// Backend discovery and runtime dispatch (DESIGN.md §11). The registry is
// built once: scalar is always present, and AVX2 registers only when it
// was compiled in AND the running CPU reports it via __builtin_cpu_supports — so a binary built with -mavx2 for the one
// translation unit still starts (and silently runs scalar) on an older
// machine. Selection order: ForceBackend override > ST4ML_BACKEND env >
// widest available.

#include <cstdlib>

#include "accel/kernels.h"

namespace st4ml {
namespace accel {
namespace {

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

BackendRegistry::BackendRegistry() {
  available_.push_back(ScalarBackend());  // always present, always first
  if (const KernelBackend* avx2 = Avx2Backend();
      avx2 != nullptr && CpuHasAvx2()) {
    available_.push_back(avx2);
  }
  active_.store(AutoChoice(), std::memory_order_release);
}

BackendRegistry& BackendRegistry::Instance() {
  static BackendRegistry registry;
  return registry;
}

const KernelBackend* BackendRegistry::Find(const std::string& name) const {
  for (const KernelBackend* backend : available_) {
    if (name == backend->name()) return backend;
  }
  return nullptr;
}

const KernelBackend* BackendRegistry::AutoChoice() const {
  if (const char* env = std::getenv("ST4ML_BACKEND");
      env != nullptr && env[0] != '\0') {
    if (const KernelBackend* named = Find(env)) return named;
    // An unknown/unsupported env value falls through to the best backend
    // rather than aborting startup: the env var is a tuning knob, and the
    // tools' --backend flag is the strict path (ForceBackend errors).
  }
  return available_.back();  // widest ISA registers last
}

Status BackendRegistry::ForceBackend(const std::string& name) {
  if (name.empty()) {
    active_.store(AutoChoice(), std::memory_order_release);
    return Status::Ok();
  }
  const KernelBackend* named = Find(name);
  if (named == nullptr) {
    std::string names;
    for (const KernelBackend* backend : available_) {
      if (!names.empty()) names += ", ";
      names += backend->name();
    }
    return Status::InvalidArgument("unknown or unsupported backend '" + name +
                                   "' (available: " + names + ")");
  }
  active_.store(named, std::memory_order_release);
  return Status::Ok();
}

void FilterPositions(const BoxFilterQuery& q, const EnvelopeView& cols,
                     std::vector<uint32_t>* positions) {
  const size_t len = positions->size();
  if (len == 0) return;
  std::vector<double> x_min(len), y_min(len), x_max(len), y_max(len);
  std::vector<int64_t> t_min(len), t_max(len);
  for (size_t j = 0; j < len; ++j) {
    const uint32_t pos = (*positions)[j];
    x_min[j] = cols.x_min[pos];
    y_min[j] = cols.y_min[pos];
    x_max[j] = cols.x_max[pos];
    y_max[j] = cols.y_max[pos];
    t_min[j] = cols.t_min[pos];
    t_max[j] = cols.t_max[pos];
  }
  const EnvelopeView batch{x_min.data(), y_min.data(), x_max.data(),
                           y_max.data(), t_min.data(), t_max.data(), len};
  std::vector<uint8_t> bitmap(len, 0);
  Active().FilterBoxes(q, batch, bitmap.data());
  BackendRegistry::Instance().CountBatch(len);
  size_t kept = 0;
  for (size_t j = 0; j < len; ++j) {
    if (bitmap[j] != 0) (*positions)[kept++] = (*positions)[j];
  }
  positions->resize(kept);
}

}  // namespace accel
}  // namespace st4ml
