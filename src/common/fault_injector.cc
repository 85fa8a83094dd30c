#include "common/fault_injector.h"

namespace st4ml {

Status FaultInjector::MaybeFail(const char* site, const std::string& detail) {
  if (!armed_.load(std::memory_order_acquire)) return Status::Ok();
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return Status::Ok();
    SiteState& state = it->second;
    if (state.fail_next > 0) {
      --state.fail_next;
      fire = true;
    } else if (state.probability > 0.0 &&
               state.rng.Uniform(0.0, 1.0) < state.probability) {
      fire = true;
    }
  }
  if (!fire) return Status::Ok();
  injected_.fetch_add(1, std::memory_order_relaxed);
  std::string msg = "injected fault at " + std::string(site);
  if (!detail.empty()) msg += ": " + detail;
  return Status::IOError(std::move(msg));
}

void FaultInjector::FailNext(const std::string& site, int times) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_[site].fail_next = times;
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::ArmProbabilistic(const std::string& site,
                                     double probability, uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& state = sites_[site];
  state.probability = probability;
  state.rng = Rng(seed);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_.store(false, std::memory_order_release);
  injected_.store(0, std::memory_order_relaxed);
}

FaultInjector& GlobalFaultInjector() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

}  // namespace st4ml
