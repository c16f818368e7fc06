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

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

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

}  // namespace metis
