// Kernel backend differential tests: every compiled-in backend the CPU
// supports must produce BIT-identical box-filter outputs to the scalar
// reference, across the inputs that break naive SIMD ports — NaN/±inf
// coordinates, empty batches, batch sizes straddling the vector width
// (w-1, w, w+1), unaligned tails (offset base pointers), inverted
// (degenerate) boxes on both the record and the query side — plus registry
// dispatch: CPUID-gated availability, ST4ML_BACKEND / ForceBackend override
// semantics, and the PairHash == HashCombine contract the pair-keyed
// shuffle's bucket targets depend on.

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "accel/hash_mix.h"
#include "accel/kernels.h"
#include "common/rng.h"
#include "engine/pair_ops.h"

namespace st4ml {
namespace accel {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Batch sizes around the AVX2 vector width (4) and its multiples, plus
/// empty and "large with a ragged tail".
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 1001};

/// A deterministic coordinate stream with adversarial values sprinkled in:
/// every 13th value is NaN, every 17th ±inf, every 11th a denormal-ish
/// tiny, occasionally -0.0.
std::vector<double> AdversarialDoubles(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % 13 == 5) {
      v[i] = kNaN;
    } else if (i % 17 == 3) {
      v[i] = (i % 2 == 0) ? kInf : -kInf;
    } else if (i % 11 == 7) {
      v[i] = 1e-310;  // subnormal range
    } else if (i % 23 == 9) {
      v[i] = -0.0;
    } else {
      v[i] = rng.Uniform(-180, 180);
    }
  }
  return v;
}

std::vector<int64_t> RandomTimes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng.UniformInt(-100000, 100000);
  return v;
}

/// All backends beyond scalar that this binary + CPU can run.
std::vector<const KernelBackend*> SimdBackends() {
  std::vector<const KernelBackend*> out;
  for (const KernelBackend* b : BackendRegistry::Instance().Available()) {
    if (std::string(b->name()) != "scalar") out.push_back(b);
  }
  return out;
}

const KernelBackend& Scalar() {
  const KernelBackend* s = BackendRegistry::Instance().Find("scalar");
  EXPECT_NE(s, nullptr);
  return *s;
}

/// Envelope columns with adversarial coordinates; roughly half the boxes
/// are proper (min <= max), the rest inverted or NaN-poisoned.
struct TestColumns {
  std::vector<double> x_min, y_min, x_max, y_max;
  std::vector<int64_t> t_min, t_max;

  explicit TestColumns(size_t n, uint64_t seed) {
    x_min = AdversarialDoubles(n, seed + 1);
    y_min = AdversarialDoubles(n, seed + 2);
    x_max = AdversarialDoubles(n, seed + 3);
    y_max = AdversarialDoubles(n, seed + 4);
    t_min = RandomTimes(n, seed + 5);
    t_max = RandomTimes(n, seed + 6);
    // Make about half the boxes proper so hits actually occur.
    for (size_t i = 0; i < n; i += 2) {
      if (x_min[i] > x_max[i]) std::swap(x_min[i], x_max[i]);
      if (y_min[i] > y_max[i]) std::swap(y_min[i], y_max[i]);
      if (t_min[i] > t_max[i]) std::swap(t_min[i], t_max[i]);
    }
  }

  EnvelopeView View(size_t offset = 0) const {
    EnvelopeView v;
    v.x_min = x_min.data() + offset;
    v.y_min = y_min.data() + offset;
    v.x_max = x_max.data() + offset;
    v.y_max = y_max.data() + offset;
    v.t_min = t_min.data() + offset;
    v.t_max = t_max.data() + offset;
    v.size = x_min.size() - offset;
    return v;
  }
};

const BoxFilterQuery kQueries[] = {
    {-50.0, -50.0, 50.0, 50.0, -5000, 5000},  // plain window
    {-kInf, -kInf, kInf, kInf, INT64_MIN, INT64_MAX},  // everything
    {10.0, 10.0, -10.0, -10.0, 0, 100},  // inverted (degenerate) query box
    {kNaN, kNaN, kNaN, kNaN, 0, 0},      // NaN query never matches
    {0.0, 0.0, 0.0, 0.0, 0, 0},          // point query
};

TEST(AccelFilterBoxes, MatchesScalarBitForBitOnAdversarialBatches) {
  for (const KernelBackend* simd : SimdBackends()) {
    for (size_t n : kSizes) {
      TestColumns cols(n, 42 + n);
      for (const BoxFilterQuery& q : kQueries) {
        std::vector<uint8_t> expected(n + 1, 0xee), actual(n + 1, 0xbb);
        Scalar().FilterBoxes(q, cols.View(), expected.data());
        simd->FilterBoxes(q, cols.View(), actual.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(expected[i], actual[i])
              << "hit bitmap diverged on " << simd->name() << " n=" << n
              << " index " << i;
          ASSERT_TRUE(actual[i] == 0 || actual[i] == 1);
        }
        // One-past-the-end byte untouched: kernels write exactly n hits.
        ASSERT_EQ(expected[n], 0xee);
        ASSERT_EQ(actual[n], 0xbb);
      }
    }
  }
}

TEST(AccelFilterBoxes, UnalignedTailsMatchScalar) {
  const size_t kN = 67;
  TestColumns cols(kN, 7);
  const BoxFilterQuery q = kQueries[0];
  // Offsetting the base pointers by 1..7 elements breaks any 16/32-byte
  // alignment assumption; outputs must still match scalar exactly.
  for (const KernelBackend* simd : SimdBackends()) {
    for (size_t offset = 1; offset < 8; ++offset) {
      size_t n = kN - offset;
      std::vector<uint8_t> expected(n), actual(n);
      Scalar().FilterBoxes(q, cols.View(offset), expected.data());
      simd->FilterBoxes(q, cols.View(offset), actual.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(expected[i], actual[i])
            << simd->name() << " offset=" << offset << " index " << i;
      }
    }
  }
}

TEST(AccelFilterBoxes, AgreesWithStboxIntersectsOnProperBoxes) {
  // The kernel predicate IS STBox::Intersects (record side folded in,
  // query side host-checked): spot-check against the real thing.
  Rng rng(99);
  const size_t kN = 200;
  EnvelopeColumns cols;
  std::vector<STBox> boxes;
  for (size_t i = 0; i < kN; ++i) {
    double x1 = rng.Uniform(-100, 100), x2 = rng.Uniform(-100, 100);
    double y1 = rng.Uniform(-100, 100), y2 = rng.Uniform(-100, 100);
    int64_t t1 = rng.UniformInt(-1000, 1000), t2 = rng.UniformInt(-1000, 1000);
    STBox box(Mbr(std::min(x1, x2), std::min(y1, y2), std::max(x1, x2),
                  std::max(y1, y2)),
              Duration(std::min(t1, t2), std::max(t1, t2)));
    boxes.push_back(box);
    cols.Append(box);
  }
  STBox query(Mbr(-20, -20, 30, 30), Duration(-100, 500));
  std::vector<uint8_t> hits(kN);
  for (const KernelBackend* backend : BackendRegistry::Instance().Available()) {
    backend->FilterBoxes(BoxFilterQuery::FromBox(query), cols.View(),
                         hits.data());
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i] != 0, boxes[i].Intersects(query))
          << backend->name() << " disagrees with STBox::Intersects at " << i;
    }
  }
}

TEST(AccelCombineHashes, PairHashIsExactlyHashCombine) {
  // Pair-keyed shuffles bucket by PairHash; pin that it is exactly
  // HashCombine of the component std::hashes, so bucket targets stay put.
  Rng rng(4242);
  for (int i = 0; i < 1000; ++i) {
    std::pair<int64_t, int64_t> key{static_cast<int64_t>(rng.Next()),
                                    static_cast<int64_t>(rng.Next())};
    uint64_t expected = HashCombine(
        static_cast<uint64_t>(std::hash<int64_t>{}(key.first)),
        static_cast<uint64_t>(std::hash<int64_t>{}(key.second)));
    ASSERT_EQ(static_cast<uint64_t>(PairHash{}(key)), expected);
  }
}

TEST(AccelRegistry, ScalarAlwaysAvailableAndFirst) {
  const auto& available = BackendRegistry::Instance().Available();
  ASSERT_FALSE(available.empty());
  EXPECT_STREQ(available.front()->name(), "scalar");
  // Scalar plus, when the CPU has it, AVX2 — nothing else registers.
  ASSERT_LE(available.size(), 2u);
  if (available.size() == 2) {
    EXPECT_STREQ(available[1]->name(), "avx2");
  }
}

TEST(AccelRegistry, ForceBackendOverridesAndRestores) {
  BackendRegistry& registry = BackendRegistry::Instance();
  const std::string before = registry.active_name();

  ASSERT_TRUE(registry.ForceBackend("scalar").ok());
  EXPECT_STREQ(registry.active_name(), "scalar");

  Status bad = registry.ForceBackend("avx512-from-the-future");
  EXPECT_EQ(bad.code(), Status::Code::kInvalidArgument);
  // A rejected force leaves the active backend untouched.
  EXPECT_STREQ(registry.active_name(), "scalar");
  // The error names the valid choices.
  EXPECT_NE(bad.message().find("scalar"), std::string::npos);
  // SSE2 is not a backend.
  Status sse2 = registry.ForceBackend("sse2");
  EXPECT_EQ(sse2.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(sse2.message().find("scalar"), std::string::npos);

  ASSERT_TRUE(registry.ForceBackend("").ok());  // back to automatic
  EXPECT_EQ(std::string(registry.active_name()), before);
}

TEST(AccelRegistry, CountersAccumulate) {
  BackendRegistry& registry = BackendRegistry::Instance();
  uint64_t batches = registry.batches();
  uint64_t batch_records = registry.batch_records();
  registry.CountBatch(128);
  EXPECT_EQ(registry.batches(), batches + 1);
  EXPECT_EQ(registry.batch_records(), batch_records + 128);
}

}  // namespace
}  // namespace accel
}  // namespace st4ml
