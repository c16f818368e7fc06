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
// tests assert is gone.

#include "src/vectordb/kernels.h"

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

// --- Scalar u8 tier ----------------------------------------------------------
//
// The quantized kernel's bit-defining reference: sixteen float chains
// (element i -> chain i mod 16), each element contributing
// round(f32(code) * w) via a separate multiply and add (-ffp-contract=off
// forbids contraction here too). The reduction first folds chain j+8 into
// chain j — exactly the AVX2 tier's lo + hi fold — then runs the same
// eight-partial tree as the fp32 kernel, then adds the float tail.
float DotU8F32Scalar(const uint8_t* codes, const float* w, size_t n) {
  float acc[16] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t j = 0; j < 16; ++j) {
      acc[j] += static_cast<float>(codes[i + j]) * w[i + j];
    }
  }
  float s8[8];
  for (size_t j = 0; j < 8; ++j) {
    s8[j] = acc[j] + acc[j + 8];
  }
  float sum = ((s8[0] + s8[4]) + (s8[2] + s8[6])) + ((s8[1] + s8[5]) + (s8[3] + s8[7]));
  float tail = 0;
  for (; i < n; ++i) {
    tail += static_cast<float>(codes[i]) * w[i];
  }
  return sum + tail;
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

// --- AVX2 u8 tier -----------------------------------------------------------
//
// lo holds chains 0..7, hi holds chains 8..15. Each 16-element step loads 16
// codes, zero-extends 8+8 to i32, converts to f32 (both conversions exact for
// u8 values), and does one mul_ps + add_ps per half. The lo+hi fold in the
// reduction is the scalar tier's s8[j] = acc[j] + acc[j+8].
__attribute__((target("avx2"))) float DotU8F32Avx2(const uint8_t* codes, const float* w,
                                                   size_t n) {
  __m256 lo = _mm256_setzero_ps();  // Chains 0..7.
  __m256 hi = _mm256_setzero_ps();  // Chains 8..15.
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    __m256 c_lo = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(raw));
    __m256 c_hi = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_srli_si128(raw, 8)));
    lo = _mm256_add_ps(lo, _mm256_mul_ps(c_lo, _mm256_loadu_ps(w + i)));
    hi = _mm256_add_ps(hi, _mm256_mul_ps(c_hi, _mm256_loadu_ps(w + i + 8)));
  }
  // s8 = lo + hi; halve twice more and the scalar tree falls out.
  __m256 s8 = _mm256_add_ps(lo, hi);
  __m128 s4 = _mm_add_ps(_mm256_castps256_ps128(s8), _mm256_extractf128_ps(s8, 1));
  __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  float sum = _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1)));
  float tail = 0;
  for (; i < n; ++i) {
    tail += static_cast<float>(codes[i]) * w[i];
  }
  return sum + tail;
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

U8DotKernelFn U8KernelForTarget(KernelTarget target) {
  switch (target) {
#if METIS_KERNELS_X86
    case KernelTarget::kAvx2:
      return &DotU8F32Avx2;
#endif
    default:
      return &DotU8F32Scalar;
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
  std::atomic<U8DotKernelFn> u8fn;

  Dispatch() {
    KernelTarget t = DefaultTarget();
    target.store(t, std::memory_order_relaxed);
    fn.store(KernelForTarget(t), std::memory_order_relaxed);
    u8fn.store(U8KernelForTarget(t), std::memory_order_relaxed);
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
  dispatch().u8fn.store(U8KernelForTarget(target), std::memory_order_relaxed);
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

float DotU8F32(const uint8_t* codes, const float* w, size_t n) {
  return dispatch().u8fn.load(std::memory_order_relaxed)(codes, w, n);
}

float DotU8F32Target(KernelTarget target, const uint8_t* codes, const float* w, size_t n) {
  METIS_CHECK(KernelTargetSupported(target));
  return U8KernelForTarget(target)(codes, w, n);
}

U8DotKernelFn ActiveU8DotKernel() { return dispatch().u8fn.load(std::memory_order_relaxed); }

}  // namespace metis
