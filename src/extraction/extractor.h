#ifndef ST4ML_EXTRACTION_EXTRACTOR_H_
#define ST4ML_EXTRACTION_EXTRACTOR_H_

#include <cstdint>
#include <limits>
#include <utility>

#include "engine/execution_context.h"

namespace st4ml {

/// Unit of the speeds reported by the speed extractors.
enum class SpeedUnit {
  kMetersPerSecond,
  kKilometersPerHour,
};

inline double SpeedFactor(SpeedUnit unit) {
  return unit == SpeedUnit::kKilometersPerHour ? 3.6 : 1.0;
}

/// A mergeable running mean — the shape extractor aggregates want: cheap to
/// ship between partitions, exact to combine, final division deferred.
struct MeanAcc {
  double sum = 0.0;
  int64_t count = 0;

  void Add(double v) {
    sum += v;
    ++count;
  }
  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  MeanAcc operator+(const MeanAcc& other) const {
    return MeanAcc{sum + other.sum, count + other.count};
  }
};

/// Per-raster-cell speed summary: mean over the vehicles whose trajectories
/// crossed the cell during the bin, plus how many there were.
struct CellSpeed {
  double speed = 0.0;
  int64_t vehicles = 0;
};

/// Column statistics over a batch of per-trajectory speeds (see
/// ExtractTrajSpeedStats). Empty input is the reduction identity.
struct SpeedStats {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  int64_t count = 0;

  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

/// Wraps any callable into an extractor object, so ad-hoc lambdas compose
/// with the library extractors under one calling convention
/// (`extractor.Extract(converted_rdd)`).
template <typename Fn>
class FunctionExtractor {
 public:
  explicit FunctionExtractor(Fn fn) : fn_(std::move(fn)) {}
  FunctionExtractor(const char* name, Fn fn)
      : fn_(std::move(fn)), name_(name) {}

  /// When the input exposes an ExecutionContext (a Dataset does; plain
  /// collective structures don't), the call runs under an operation span
  /// named after the extractor.
  template <typename In>
  auto Extract(const In& rdd) const {
    if constexpr (requires { rdd.context()->tracer(); }) {
      ScopedSpan op(rdd.context()->tracer(), span_category::kOperation, name_);
      return fn_(rdd);
    } else {
      return fn_(rdd);
    }
  }

 private:
  Fn fn_;
  const char* name_ = "extract";
};

template <typename Fn>
FunctionExtractor<Fn> MakeExtractor(Fn fn) {
  return FunctionExtractor<Fn>(std::move(fn));
}

/// Named variant: the name labels the extractor's operation span.
template <typename Fn>
FunctionExtractor<Fn> MakeExtractor(const char* name, Fn fn) {
  return FunctionExtractor<Fn>(name, std::move(fn));
}

}  // namespace st4ml

#endif  // ST4ML_EXTRACTION_EXTRACTOR_H_
