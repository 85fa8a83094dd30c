#ifndef ST4ML_ACCEL_HASH_MIX_H_
#define ST4ML_ACCEL_HASH_MIX_H_

#include <cstdint>

namespace st4ml {

/// SplitMix64 finalizer (Vigna): full-avalanche mix of a 64-bit value using
/// only adds, xors, shifts and wrapping multiplies.
inline uint64_t SplitMix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// THE hash combine for composite shuffle keys: the boost-style combine the
/// repo used to ship, fed through a SplitMix64 finalizer so low-entropy key
/// components (dense cell ids x small hour bins) still spread over all 64
/// bits — weak combines skew the `hash % num_targets` bucketing and with it
/// the shuffle's load balance. PairHash (engine/pair_ops.h) is defined as
/// exactly this function of the component hashes.
inline uint64_t HashCombine(uint64_t h1, uint64_t h2) {
  return SplitMix64(h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) +
                          (h1 >> 2)));
}

}  // namespace st4ml

#endif  // ST4ML_ACCEL_HASH_MIX_H_
