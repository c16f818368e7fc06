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
// Quantized block kernel (the int8 SQ mirror, quantize.h): the exact integer
// dots of one block of kSqBlockRows = 32 mirror rows' uint8 codes against a
// query's int16 weights, read only at the dimension pairs the query lists
// (its nonzero weights). Integer arithmetic has no rounding, so every tier
// returns the same int64s by construction and the kernel needs no ordering
// contract: the scalar tier is a plain int64 loop; the AVX2 tier widens each
// listed pair's 64-byte line to int16 (vpmovzxbw), multiply-adds it against
// the pair's broadcast weights into one int32 lane per row (vpmaddwd), and
// folds the lanes into int64 often enough that none can wrap (proof below).

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

// The tier DotBlocked and the block kernel currently dispatch to.
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

// --- Quantized (u8 x i16) block kernel --------------------------------------

// Rows per block of the SQ mirror's pair-blocked layout: dimension pair p of
// a block is the 64-byte line at byte 64 * p, which holds (code[2p],
// code[2p+1]) of the block's row r at bytes 2r and 2r + 1.
constexpr size_t kSqBlockRows = 32;

// One listed dimension pair: its index p and the int16 weights of dimensions
// 2p and 2p + 1 packed as vpmaddwd reads a pair (PackPairWeights).
struct U8PairWeight {
  uint32_t pair;
  int32_t w;
};

// w[2p] in bits 0-15, w[2p+1] in bits 16-31, two's complement each.
inline int32_t PackPairWeights(int16_t lo, int16_t hi) {
  return static_cast<int32_t>(hi) * 65536 + static_cast<int32_t>(static_cast<uint16_t>(lo));
}

// dots[r] = sum over the n listed pairs of code[2p] * w[2p] +
// code[2p+1] * w[2p+1] for each of the block's 32 rows r: exact for any int16
// weights and any n < 2^32, and 0 for every row when n = 0.
//
// Fold proof (AVX2 tier): one madd result, code[2p] * w[2p] +
// code[2p+1] * w[2p+1], is exact and at most 2 * 255 * 32768 = 16,711,680 in
// magnitude, and a row's int32 lane adds one madd result per pair, so 128
// pairs reach at most 2,139,095,040 < 2^31 - 1. The tier folds its lanes
// into int64 after every 128 pairs, so no lane wraps.
using U8BlockKernelFn = void (*)(const uint8_t* block, const U8PairWeight* pairs, size_t n,
                                 int64_t* dots);

// The active tier's block kernel (quantized scan loops fetch it once per
// scan, like ActiveDotKernel).
U8BlockKernelFn ActiveU8BlockKernel();

}  // namespace metis

#endif  // METIS_SRC_VECTORDB_KERNELS_H_
