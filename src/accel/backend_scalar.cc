// Scalar reference backend — THE semantics the AVX2 backend must
// reproduce bit-for-bit (DESIGN.md §11). The filter predicate is the
// STBox::Intersects comparison chain, so NaN behaves identically.

#include "accel/kernels.h"

namespace st4ml {
namespace accel {
namespace {

class ScalarBackendImpl final : public KernelBackend {
 public:
  const char* name() const override { return "scalar"; }

  void FilterBoxes(const BoxFilterQuery& q, const EnvelopeView& b,
                   uint8_t* hits) const override {
    for (size_t i = 0; i < b.size; ++i) {
      // Record-side emptiness (min <= max; an inverted/default Mbr or a NaN
      // coordinate fails) plus the closed-interval overlap tests from
      // Mbr::Intersects and Duration::Intersects. Every comparison is
      // written so that any NaN operand yields "no hit", matching the
      // short-circuit scalar predicate.
      bool hit = b.x_min[i] <= b.x_max[i] && b.y_min[i] <= b.y_max[i] &&
                 q.x_min <= b.x_max[i] && b.x_min[i] <= q.x_max &&
                 q.y_min <= b.y_max[i] && b.y_min[i] <= q.y_max &&
                 q.t_min <= b.t_max[i] && b.t_min[i] <= q.t_max;
      hits[i] = hit ? 1 : 0;
    }
  }
};

}  // namespace

const KernelBackend* ScalarBackend() {
  static const ScalarBackendImpl backend;
  return &backend;
}

}  // namespace accel
}  // namespace st4ml
