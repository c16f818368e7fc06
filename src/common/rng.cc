#include "src/common/rng.h"

#include <cmath>

#include "src/common/check.h"

namespace metis {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t HashString64(std::string_view s) {
  uint64_t h = kFnv64Offset;
  for (unsigned char c : s) {
    h = Fnv64Step(h, c);
  }
  return FinishHash64(h);
}

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t st = seed;
  for (auto& lane : s_) {
    lane = SplitMix64(st);
  }
}

Rng Rng::Fork(std::string_view tag) const {
  uint64_t mixed = seed_ ^ Rotl(HashString64(tag), 17);
  uint64_t st = mixed;
  return Rng(SplitMix64(st));
}

uint64_t Rng::NextU64() {
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

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  METIS_CHECK_LE(lo, hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {  // Full 64-bit range.
    return static_cast<int64_t>(NextU64());
  }
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - (UINT64_MAX % span);
  uint64_t v = NextU64();
  while (v >= limit) {
    v = NextU64();
  }
  return lo + static_cast<int64_t>(v % span);
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

bool Rng::Bernoulli(double p) {
  if (p <= 0) {
    return false;
  }
  if (p >= 1) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::Normal(double mean, double stddev) {
  // Box-Muller. Draws two uniforms per call; simplicity beats caching here.
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) {
    u1 = NextDouble();
  }
  double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double Rng::Exponential(double rate) {
  METIS_CHECK_GT(rate, 0);
  double u = NextDouble();
  while (u <= 1e-300) {
    u = NextDouble();
  }
  return -std::log(u) / rate;
}

int Rng::Poisson(double mean) {
  METIS_CHECK_GE(mean, 0);
  if (mean == 0) {
    return 0;
  }
  if (mean < 30) {
    // Knuth's method.
    double l = std::exp(-mean);
    int k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= NextDouble();
    } while (p > l);
    return k - 1;
  }
  // Normal approximation for large means.
  double v = Normal(mean, std::sqrt(mean));
  return v < 0 ? 0 : static_cast<int>(v + 0.5);
}

int Rng::Zipf(int n, double s) {
  METIS_CHECK_GT(n, 0);
  // Inverse-CDF over the (small) support; n is at most a few thousand here.
  double total = 0;
  for (int k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
  }
  double target = NextDouble() * total;
  double acc = 0;
  for (int k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    if (acc >= target) {
      return k;
    }
  }
  return n - 1;
}

size_t Rng::Index(size_t size) {
  METIS_CHECK_GT(size, 0u);
  return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(size) - 1));
}

}  // namespace metis
