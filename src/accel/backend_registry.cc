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

}  // namespace accel
}  // namespace st4ml
