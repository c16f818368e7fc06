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
// serializable across platforms.
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
  uint64_t seed_ = 0;
  uint64_t s_[4] = {0, 0, 0, 0};
};

}  // namespace metis

#endif  // METIS_SRC_COMMON_RNG_H_
