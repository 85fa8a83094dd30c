// AVX2 backend: 4-wide double and 64-bit integer lanes. This is the ONLY
// translation unit compiled with -mavx2 (per-file COMPILE_OPTIONS in
// src/CMakeLists.txt). Registered only when __builtin_cpu_supports("avx2")
// says the running CPU has it.

#include "accel/kernels.h"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

namespace st4ml {
namespace accel {
namespace {

class Avx2BackendImpl final : public KernelBackend {
 public:
  const char* name() const override { return "avx2"; }

  void FilterBoxes(const BoxFilterQuery& q, const EnvelopeView& b,
                   uint8_t* hits) const override {
    const __m256d qx_min = _mm256_set1_pd(q.x_min);
    const __m256d qx_max = _mm256_set1_pd(q.x_max);
    const __m256d qy_min = _mm256_set1_pd(q.y_min);
    const __m256d qy_max = _mm256_set1_pd(q.y_max);
    const __m256i qt_min = _mm256_set1_epi64x(q.t_min);
    const __m256i qt_max = _mm256_set1_epi64x(q.t_max);
    size_t i = 0;
    for (; i + 4 <= b.size; i += 4) {
      __m256d bx_min = _mm256_loadu_pd(b.x_min + i);
      __m256d bx_max = _mm256_loadu_pd(b.x_max + i);
      __m256d by_min = _mm256_loadu_pd(b.y_min + i);
      __m256d by_max = _mm256_loadu_pd(b.y_max + i);
      __m256i bt_min =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.t_min + i));
      __m256i bt_max =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.t_max + i));
      // _CMP_LE_OQ is false on NaN, matching the scalar <=.
      __m256d m = _mm256_and_pd(_mm256_cmp_pd(bx_min, bx_max, _CMP_LE_OQ),
                                _mm256_cmp_pd(by_min, by_max, _CMP_LE_OQ));
      m = _mm256_and_pd(m, _mm256_cmp_pd(qx_min, bx_max, _CMP_LE_OQ));
      m = _mm256_and_pd(m, _mm256_cmp_pd(bx_min, qx_max, _CMP_LE_OQ));
      m = _mm256_and_pd(m, _mm256_cmp_pd(qy_min, by_max, _CMP_LE_OQ));
      m = _mm256_and_pd(m, _mm256_cmp_pd(by_min, qy_max, _CMP_LE_OQ));
      // a <= b over int64 as NOT (a > b); AVX2 has only cmpgt for 64-bit.
      __m256i t_ok = _mm256_andnot_si256(
          _mm256_cmpgt_epi64(qt_min, bt_max),
          _mm256_andnot_si256(_mm256_cmpgt_epi64(bt_min, qt_max),
                              _mm256_set1_epi64x(-1)));
      m = _mm256_and_pd(m, _mm256_castsi256_pd(t_ok));
      int bits = _mm256_movemask_pd(m);
      hits[i] = (bits & 1) ? 1 : 0;
      hits[i + 1] = (bits & 2) ? 1 : 0;
      hits[i + 2] = (bits & 4) ? 1 : 0;
      hits[i + 3] = (bits & 8) ? 1 : 0;
    }
    for (; i < b.size; ++i) {
      bool hit = b.x_min[i] <= b.x_max[i] && b.y_min[i] <= b.y_max[i] &&
                 q.x_min <= b.x_max[i] && b.x_min[i] <= q.x_max &&
                 q.y_min <= b.y_max[i] && b.y_min[i] <= q.y_max &&
                 q.t_min <= b.t_max[i] && b.t_min[i] <= q.t_max;
      hits[i] = hit ? 1 : 0;
    }
  }
};

}  // namespace

const KernelBackend* Avx2Backend() {
  static const Avx2BackendImpl backend;
  return &backend;
}

}  // namespace accel
}  // namespace st4ml

#else  // AVX2 not compiled in

namespace st4ml {
namespace accel {

const KernelBackend* Avx2Backend() { return nullptr; }

}  // namespace accel
}  // namespace st4ml

#endif
