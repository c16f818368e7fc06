// Runtime-dispatched SIMD dot kernels. See kernels.h for the contract: every
// tier returns the bit-identical double, so this file is deliberately rigid
// about accumulation structure:
//
//   - element i feeds chain (i mod 8); a chain's additions happen in index
//     order (strictly sequential per chain);
//   - each element contributes round(round-to-double(a)*round-to-double(b))
//     via a separate multiply and add — never an FMA. The float->double
//     conversions are exact, the product is rounded once, the add once; the
//     intrinsic tiers use mul_pd + add_pd and this TU is compiled with
//     -ffp-contract=off so the scalar tier cannot be contracted either;
//   - the eight chains reduce through the fixed halving tree
//     ((c0+c4)+(c2+c6)) + ((c1+c5)+(c3+c7)), which is exactly what a
//     log2-halving SIMD reduction computes, then the scalar tail is added.
//
// Change any of these and the tiers stop agreeing in the last ulp, the float
// distances can round differently, and the cross-target ranking parity the
// tests assert is gone. The u8 kernels are integer and exact, so none of this
// binds them.

#include "src/vectordb/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define METIS_KERNELS_X86 1
#else
#define METIS_KERNELS_X86 0
#endif

#include "src/common/check.h"

namespace metis {
namespace {

// --- Scalar tier ------------------------------------------------------------

double DotScalar(const float* a, const float* b, size_t n) {
  double acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
  double acc4 = 0, acc5 = 0, acc6 = 0, acc7 = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 += static_cast<double>(a[i + 0]) * b[i + 0];
    acc1 += static_cast<double>(a[i + 1]) * b[i + 1];
    acc2 += static_cast<double>(a[i + 2]) * b[i + 2];
    acc3 += static_cast<double>(a[i + 3]) * b[i + 3];
    acc4 += static_cast<double>(a[i + 4]) * b[i + 4];
    acc5 += static_cast<double>(a[i + 5]) * b[i + 5];
    acc6 += static_cast<double>(a[i + 6]) * b[i + 6];
    acc7 += static_cast<double>(a[i + 7]) * b[i + 7];
  }
  double tail = 0;
  for (; i < n; ++i) {
    tail += static_cast<double>(a[i]) * b[i];
  }
  return (((acc0 + acc4) + (acc2 + acc6)) + ((acc1 + acc5) + (acc3 + acc7))) + tail;
}

// --- Scalar block tier --------------------------------------------------------

// Each madd-shaped term fits int32 (|c0 * w0 + c1 * w1| <= 2 * 255 * 32768);
// the int64 sums are exact for any n < 2^32.
void BlockDotU8I16Scalar(const uint8_t* block, const U8PairWeight* pairs, size_t n,
                         int64_t* dots) {
  std::fill(dots, dots + kSqBlockRows, int64_t{0});
  for (size_t j = 0; j < n; ++j) {
    const uint8_t* line = block + size_t{pairs[j].pair} * (2 * kSqBlockRows);
    // Unpacks PackPairWeights: the low half's bits, then the exact quotient.
    int32_t low_bits = static_cast<int32_t>(static_cast<uint32_t>(pairs[j].w) & 0xFFFFu);
    int32_t w0 = low_bits >= 32768 ? low_bits - 65536 : low_bits;
    int32_t w1 = (pairs[j].w - low_bits) / 65536;
    for (size_t r = 0; r < kSqBlockRows; ++r) {
      dots[r] += line[2 * r] * w0 + line[2 * r + 1] * w1;
    }
  }
}

#if METIS_KERNELS_X86

// --- AVX2 tier --------------------------------------------------------------
//
// Accumulator lo holds chains 0..3, hi holds chains 4..7. Each 8-element step
// loads 8 floats per operand, widens 4+4 to double, and does one mul_pd +
// add_pd per half — lane j of lo/hi performs precisely scalar chain j's
// operations in the same order.
__attribute__((target("avx2"))) double DotAvx2(const float* a, const float* b, size_t n) {
  __m256d lo = _mm256_setzero_pd();  // Chains 0..3.
  __m256d hi = _mm256_setzero_pd();  // Chains 4..7.
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d a_lo = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    __m256d a_hi = _mm256_cvtps_pd(_mm_loadu_ps(a + i + 4));
    __m256d b_lo = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
    __m256d b_hi = _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4));
    lo = _mm256_add_pd(lo, _mm256_mul_pd(a_lo, b_lo));
    hi = _mm256_add_pd(hi, _mm256_mul_pd(a_hi, b_hi));
  }
  // s4 = [c0+c4, c1+c5, c2+c6, c3+c7]; halve again and the scalar tree falls
  // out: lane0+lane1 of s2 = ((c0+c4)+(c2+c6)) + ((c1+c5)+(c3+c7)).
  __m256d s4 = _mm256_add_pd(lo, hi);
  __m128d s2 = _mm_add_pd(_mm256_castpd256_pd128(s4), _mm256_extractf128_pd(s4, 1));
  double sum = _mm_cvtsd_f64(_mm_add_sd(s2, _mm_unpackhi_pd(s2, s2)));
  double tail = 0;
  for (; i < n; ++i) {
    tail += static_cast<double>(a[i]) * b[i];
  }
  return sum + tail;
}

// --- AVX2 block tier ---------------------------------------------------------
//
// A listed pair's line holds 32 rows' (code[2p], code[2p+1]); each of its four
// 16-byte quarters covers 8 rows. vpmovzxbw widens a quarter to 16 int16
// lanes, and vpmaddwd against the broadcast packed weights leaves one int32
// lane per row, c[2p] * w[2p] + c[2p+1] * w[2p+1]; acc[i] holds rows
// 8i .. 8i + 7 in order. After at most kFoldPairs pairs (kernels.h has the
// proof) each accumulator is sign-extended into the int64 totals: its low
// half into rows 8i .. 8i + 3, its high half into 8i + 4 .. 8i + 7.
__attribute__((target("avx2"))) void BlockDotU8I16Avx2(const uint8_t* block,
                                                       const U8PairWeight* pairs, size_t n,
                                                       int64_t* dots) {
  constexpr size_t kFoldPairs = 128;
  __m256i total[8];
  for (__m256i& t : total) {
    t = _mm256_setzero_si256();
  }
  size_t j = 0;
  while (j < n) {
    size_t fold_end = j + std::min(kFoldPairs, n - j);
    __m256i acc[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(), _mm256_setzero_si256(),
                      _mm256_setzero_si256()};
    for (; j < fold_end; ++j) {
      const uint8_t* line = block + size_t{pairs[j].pair} * (2 * kSqBlockRows);
      __m256i w = _mm256_set1_epi32(pairs[j].w);
      for (int i = 0; i < 4; ++i) {
        __m256i c = _mm256_cvtepu8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(line + 16 * i)));
        acc[i] = _mm256_add_epi32(acc[i], _mm256_madd_epi16(c, w));
      }
    }
    for (int i = 0; i < 4; ++i) {
      total[2 * i] = _mm256_add_epi64(total[2 * i],
                                      _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc[i])));
      total[2 * i + 1] = _mm256_add_epi64(
          total[2 * i + 1], _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc[i], 1)));
    }
  }
  for (int i = 0; i < 8; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dots + 4 * i), total[i]);
  }
}

#endif  // METIS_KERNELS_X86

// --- Dispatch ---------------------------------------------------------------

DotKernelFn KernelForTarget(KernelTarget target) {
  switch (target) {
#if METIS_KERNELS_X86
    case KernelTarget::kAvx2:
      return &DotAvx2;
#endif
    default:
      return &DotScalar;
  }
}

U8BlockKernelFn U8BlockKernelForTarget(KernelTarget target) {
  switch (target) {
#if METIS_KERNELS_X86
    case KernelTarget::kAvx2:
      return &BlockDotU8I16Avx2;
#endif
    default:
      return &BlockDotU8I16Scalar;
  }
}

KernelTarget DefaultTarget() {
  const char* env = std::getenv("METIS_KERNEL_TARGET");
  if (env != nullptr) {
    for (KernelTarget t : {KernelTarget::kScalar, KernelTarget::kAvx2}) {
      if (std::strcmp(env, KernelTargetName(t)) == 0 && KernelTargetSupported(t)) {
        return t;
      }
    }
    // An ignored override silently mislabels every downstream measurement —
    // say so once, at resolution time.
    std::fprintf(stderr,
                 "metis: ignoring METIS_KERNEL_TARGET=%s (unknown or unsupported "
                 "on this CPU); dispatching to %s\n",
                 env, KernelTargetName(BestSupportedTarget()));
  }
  return BestSupportedTarget();
}

struct Dispatch {
  std::atomic<KernelTarget> target;
  std::atomic<DotKernelFn> fn;
  std::atomic<U8BlockKernelFn> u8fn;

  Dispatch() {
    KernelTarget t = DefaultTarget();
    target.store(t, std::memory_order_relaxed);
    fn.store(KernelForTarget(t), std::memory_order_relaxed);
    u8fn.store(U8BlockKernelForTarget(t), std::memory_order_relaxed);
  }
};

Dispatch& dispatch() {
  static Dispatch d;  // Resolved once, on first use (thread-safe static init).
  return d;
}

}  // namespace

const char* KernelTargetName(KernelTarget target) {
  switch (target) {
    case KernelTarget::kScalar:
      return "scalar";
    case KernelTarget::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool KernelTargetSupported(KernelTarget target) {
  switch (target) {
    case KernelTarget::kScalar:
      return true;
#if METIS_KERNELS_X86
    case KernelTarget::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
#else
    case KernelTarget::kAvx2:
      return false;
#endif
  }
  return false;
}

KernelTarget BestSupportedTarget() {
  return KernelTargetSupported(KernelTarget::kAvx2) ? KernelTarget::kAvx2 : KernelTarget::kScalar;
}

KernelTarget ActiveKernelTarget() {
  return dispatch().target.load(std::memory_order_relaxed);
}

bool SetKernelTarget(KernelTarget target) {
  if (!KernelTargetSupported(target)) {
    return false;
  }
  dispatch().target.store(target, std::memory_order_relaxed);
  dispatch().fn.store(KernelForTarget(target), std::memory_order_relaxed);
  dispatch().u8fn.store(U8BlockKernelForTarget(target), std::memory_order_relaxed);
  return true;
}

void ResetKernelTarget() {
  METIS_CHECK(SetKernelTarget(DefaultTarget()));
}

double DotBlocked(const float* a, const float* b, size_t n) {
  return dispatch().fn.load(std::memory_order_relaxed)(a, b, n);
}

double SquaredNormBlocked(const float* a, size_t n) { return DotBlocked(a, a, n); }

double DotBlockedTarget(KernelTarget target, const float* a, const float* b, size_t n) {
  METIS_CHECK(KernelTargetSupported(target));
  return KernelForTarget(target)(a, b, n);
}

DotKernelFn ActiveDotKernel() { return dispatch().fn.load(std::memory_order_relaxed); }

U8BlockKernelFn ActiveU8BlockKernel() {
  return dispatch().u8fn.load(std::memory_order_relaxed);
}

}  // namespace metis
