// SIMD distance kernels with runtime dispatch.
//
// The retrieval hot loop is a dot product between a stored row and a query
// (distances are evaluated via |x-q|^2 = |x|^2 + |q|^2 - 2 dot(x,q); see
// vectordb.h). This header exposes that kernel behind a CPUID-based runtime
// dispatcher with two tiers:
//
//   kScalar  - portable C++: eight independent double accumulators, written so
//              the compiler can auto-vectorize under strict FP semantics.
//   kAvx2    - AVX2 intrinsics: two 4-wide double accumulator registers.
//
// Both tiers compute the *bit-identical* double. Both accumulate
// element i into chain (i mod 8), convert each float pair to double, multiply
// and add with separate roundings (no FMA contraction; the TU is built with
// -ffp-contract=off), and reduce the eight chains with the same halving tree
//     ((c0+c4)+(c2+c6)) + ((c1+c5)+(c3+c7))
// before adding the scalar tail. Lane j of a SIMD accumulator register
// performs exactly the additions of scalar chain j in the same order, and the
// halving reduction performs exactly the scalar tree's additions, so the
// returned double does not depend on the dispatch target. That is what lets
// the parity suite assert bit-identical rankings (and distances) with
// dispatch forced to each tier, and what lets RowPool norms computed under
// one tier be reused under another.
//
// Dispatch is resolved once at startup from CPUID (best supported tier wins)
// and can be overridden:
//   - env METIS_KERNEL_TARGET=scalar|avx2 (consulted at first use);
//   - SetKernelTarget() at runtime (tests and benches force each tier).
// Forcing an unsupported tier fails and leaves the active tier unchanged.
//
// Quantized kernel (the int8 SQ mirror, quantize.h): DotU8I16 is the exact
// integer dot of uint8 row codes against int16 per-query weights. Integer
// arithmetic has no rounding, so every tier returns the same int64 by
// construction and the kernel needs no ordering contract: the scalar tier is
// a plain int64 loop, the AVX2 tier widens codes to int16 (vpmovzxbw) and
// multiply-adds pairs into int32 lanes (vpmaddwd), folding the lanes into
// int64 often enough that none can wrap (kernels.cc has the proof).

#ifndef METIS_SRC_VECTORDB_KERNELS_H_
#define METIS_SRC_VECTORDB_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace metis {

// Dispatch tiers, ordered from portable to widest.
enum class KernelTarget {
  kScalar = 0,
  kAvx2 = 1,
};

// Stable lowercase name ("scalar", "avx2") for logs and bench tags.
const char* KernelTargetName(KernelTarget target);

// True if the running CPU can execute `target` (CPUID; kScalar is always
// supported).
bool KernelTargetSupported(KernelTarget target);

// The fastest supported tier on this CPU: AVX2 when available, else scalar.
KernelTarget BestSupportedTarget();

// The tier DotBlocked currently dispatches to.
KernelTarget ActiveKernelTarget();

// Forces dispatch to `target` for subsequent calls. Returns false (and leaves
// dispatch unchanged) if the CPU does not support it. Not synchronized with
// concurrent searches: switch targets only between search operations, as the
// parity tests and benches do.
bool SetKernelTarget(KernelTarget target);

// Restores the startup default: METIS_KERNEL_TARGET if set and supported,
// else the best supported tier.
void ResetKernelTarget();

// Dot product over float data, accumulated in double across eight chains as
// described above. Dispatches to the active tier; deterministic for a given
// (a, b, n) regardless of tier.
double DotBlocked(const float* a, const float* b, size_t n);

// Squared L2 norm with the same accumulation structure, so
// SquaredNormBlocked(x) == DotBlocked(x, x) bit-for-bit (exact-duplicate rows
// score an exact-zero distance).
double SquaredNormBlocked(const float* a, size_t n);

// Runs the kernel of a specific tier, bypassing dispatch (parity tests).
// Aborts if the tier is unsupported on this CPU.
double DotBlockedTarget(KernelTarget target, const float* a, const float* b, size_t n);

// The active tier's raw function pointer. Hot loops that score many rows
// against one query fetch it once and call it directly, skipping the
// per-call dispatch load.
using DotKernelFn = double (*)(const float*, const float*, size_t);
DotKernelFn ActiveDotKernel();

// --- Quantized (u8 x i16) kernel --------------------------------------------

// sum_i codes[i] * w[i], exact for any int16 weights and any n < 2^40.
// Dispatches to the active tier; every tier returns the same integer.
int64_t DotU8I16(const uint8_t* codes, const int16_t* w, size_t n);

// The active u8 kernel's raw function pointer (quantized scan loops fetch it
// once per scan, like ActiveDotKernel).
using U8DotKernelFn = int64_t (*)(const uint8_t*, const int16_t*, size_t);
U8DotKernelFn ActiveU8DotKernel();

}  // namespace metis

#endif  // METIS_SRC_VECTORDB_KERNELS_H_
