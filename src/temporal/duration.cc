#include "temporal/duration.h"

namespace st4ml {

std::vector<Duration> TemporalSliding(const Duration& range, int64_t step_s) {
  std::vector<Duration> windows;
  if (step_s <= 0 || range.end() < range.start()) return windows;
  // The distance left to the range end is taken in unsigned arithmetic and
  // `t` only steps while that distance exceeds the step, so no range — even
  // one ending near INT64_MAX — overflows.
  const uint64_t step = static_cast<uint64_t>(step_s);
  for (int64_t t = range.start();;) {
    const uint64_t left =
        static_cast<uint64_t>(range.end()) - static_cast<uint64_t>(t);
    if (left <= step) {
      windows.push_back(Duration(t, range.end()));
      return windows;
    }
    windows.push_back(Duration(t, t + step_s));
    t += step_s;
  }
}

}  // namespace st4ml
