// Deterministic random number generation for the METIS simulation.
//
// All randomness in the repository flows from seeded Rng instances. Components
// derive their own streams via Rng::Fork(tag) so that adding randomness in one
// module never perturbs another module's stream (a requirement for the
// reproducible experiment harness).

#ifndef METIS_SRC_COMMON_RNG_H_
#define METIS_SRC_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/common/check.h"

namespace metis {

// SplitMix64 step; used for seeding and hashing.
uint64_t SplitMix64(uint64_t& state);

// Stable 64-bit hash of a string (FNV-1a finished with SplitMix64).
uint64_t HashString64(std::string_view s);

// HashString64's two stages, for callers that hash bytes they never hold as
// one string (a lowercased view, a concatenation of two views):
// HashString64(s) is FinishHash64 of Fnv64Step folded over s's bytes from
// kFnv64Offset.
inline constexpr uint64_t kFnv64Offset = 0xCBF29CE484222325ull;
inline uint64_t Fnv64Step(uint64_t h, unsigned char c) { return (h ^ c) * 0x100000001B3ull; }
inline uint64_t FinishHash64(uint64_t fnv) { return SplitMix64(fnv); }

// xoshiro256** PRNG. Small, fast, and good enough statistical quality for
// workload synthesis and timing jitter; crucially, fully deterministic and
// serializable across platforms. The per-draw methods are defined below the
// class so that the corpus generator's per-token draws inline.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Derives an independent child stream. The child is a pure function of
  // (parent seed, tag), not of how many numbers the parent has produced.
  Rng Fork(std::string_view tag) const;

  uint64_t NextU64();

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Standard normal via Box-Muller.
  double Normal(double mean, double stddev);

  // Exponential with the given rate (mean 1/rate). Used for Poisson arrivals.
  double Exponential(double rate);

  // Poisson-distributed count with the given mean (Knuth for small means).
  int Poisson(double mean);

  // Zipf-like rank sampler over [0, n): P(k) proportional to 1/(k+1)^s.
  int Zipf(int n, double s);

  // Picks a uniformly random element index from a non-empty container size.
  size_t Index(size_t size);

  uint64_t seed() const { return seed_; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  // Uniform in [0, span) for span > 0, without modulo bias: a draw at or above
  // limit = UINT64_MAX - UINT64_MAX % span is redrawn. UINT64_MAX % span is
  // below span, so limit > UINT64_MAX - span and every draw at or below
  // UINT64_MAX - span is accepted without computing the limit (a 64-bit
  // division); the draws accepted and redrawn are exactly the plain loop's.
  uint64_t Below(uint64_t span);

  uint64_t seed_ = 0;
  uint64_t s_[4] = {0, 0, 0, 0};
};

inline uint64_t Rng::NextU64() {
  uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

inline double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

inline bool Rng::Bernoulli(double p) {
  if (p <= 0) {
    return false;
  }
  if (p >= 1) {
    return true;
  }
  return NextDouble() < p;
}

inline uint64_t Rng::Below(uint64_t span) {
  uint64_t v = NextU64();
  while (v > UINT64_MAX - span && v >= UINT64_MAX - UINT64_MAX % span) {
    v = NextU64();
  }
  return v % span;
}

inline int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  METIS_CHECK_LE(lo, hi);
  // In unsigned arithmetic: hi - lo may exceed INT64_MAX.
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) {  // Full 64-bit range.
    return static_cast<int64_t>(NextU64());
  }
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + Below(span));
}

inline size_t Rng::Index(size_t size) {
  METIS_CHECK_GT(size, 0u);
  return static_cast<size_t>(Below(size));
}

}  // namespace metis

#endif  // METIS_SRC_COMMON_RNG_H_
