// SIMD distance kernels with runtime dispatch.
//
// The retrieval hot loop is a dot product between a stored row and a query
// (distances are evaluated via |x-q|^2 = |x|^2 + |q|^2 - 2 dot(x,q); see
// vectordb.h). This header exposes that kernel behind a CPUID-based runtime
// dispatcher with three tiers:
//
//   kScalar  - portable C++: eight independent double accumulators, written so
//              the compiler can auto-vectorize under strict FP semantics.
//   kAvx2    - AVX2 intrinsics: two 4-wide double accumulator registers.
//   kAvx512  - AVX-512F intrinsics: one 8-wide double accumulator register.
//
// Every tier computes the *bit-identical* double. All three accumulate
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
//   - env METIS_KERNEL_TARGET=scalar|avx2|avx512 (consulted at first use);
//   - SetKernelTarget() at runtime (tests and benches force each tier).
// Forcing an unsupported tier fails and leaves the active tier unchanged.
//
// Quantized kernel (int8 scalar-quantized tier, quantize.h): DotU8F32 is the
// asymmetric widening-multiply dot — uint8 row codes x a precomputed fp32
// per-query weight vector — accumulated in FLOAT across SIXTEEN chains
// (element i -> chain i mod 16). Same determinism recipe as the fp32 kernel,
// one level wider: every tier converts code u8 -> f32 exactly, multiplies and
// adds with separate roundings, folds chain j into chain j-8 first (the
// AVX-512 zmm halving step), then reduces eight partials through the fixed
// tree ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)) and adds the scalar tail — so
// the returned float is bit-identical on every tier. Sixteen float chains is
// what a 16-lane f32 SIMD register imposes. Float accumulation is fine here
// because no result is ever reported from it: the int8 tier ranks
// candidates for the exact rerank tail, and the certified fp32 scan charges
// the accumulation's worst-case rounding (a float gamma over the chain,
// fold, tree and tail depth) to its error bound — quantize.h.

#ifndef METIS_SRC_VECTORDB_KERNELS_H_
#define METIS_SRC_VECTORDB_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace metis {

// Dispatch tiers, ordered from portable to widest.
enum class KernelTarget {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

// Stable lowercase name ("scalar", "avx2", "avx512") for logs and bench tags.
const char* KernelTargetName(KernelTarget target);

// True if the running CPU can execute `target` (CPUID; kScalar is always
// supported).
bool KernelTargetSupported(KernelTarget target);

// The fastest supported tier on this CPU by dispatch policy: AVX2 when
// available (under the 8-chain determinism contract the kernel is bound by
// accumulator-add latency, and AVX2's two independent accumulator registers
// pipeline better than AVX-512's single wider one — see kernels.cc), else
// AVX-512, else scalar.
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

// --- Quantized (u8 x f32) kernel --------------------------------------------

// Widening dot between uint8 row codes and a float weight vector, accumulated
// in float across sixteen chains (header comment above). Bit-identical across
// dispatch targets.
float DotU8F32(const uint8_t* codes, const float* w, size_t n);

// Runs a specific tier, bypassing dispatch (parity tests). Aborts if the tier
// is unsupported on this CPU.
float DotU8F32Target(KernelTarget target, const uint8_t* codes, const float* w, size_t n);

// The active u8 kernel's raw function pointer (quantized scan loops fetch it
// once per scan, like ActiveDotKernel).
using U8DotKernelFn = float (*)(const uint8_t*, const float*, size_t);
U8DotKernelFn ActiveU8DotKernel();

}  // namespace metis

#endif  // METIS_SRC_VECTORDB_KERNELS_H_
