// The int8 SQ mirror and the certified fp32 scan that reads it.
//
// The mirror is a narrower parallel code array beside each shard's RowPool:
// 1 byte per dimension instead of 4. The fp32 rows stay authoritative — every
// reported distance is the exact expression over them — and the mirror only
// lets a scan prove which rows cannot be in the exact top-k. Every static
// index builds it (BuildQuantizedMirrors).
//
// Encoding. With per-dimension affine params (vmin[d], scale[d]) trained
// over the rows, code c[d] = round((x[d] - vmin[d]) / scale[d]) clamped to
// [0, 255], and the reconstructed row is vmin[d] + scale[d] * c[d]. The hot
// loop is DotU8F32, the 16-chain widening kernel in kernels.h; the query side
// stays fp32 end to end.
//
// Certified fp32 scan (CertifiedQuery below; the scan itself lives in
// vectordb.cc). The fp32 read *proves* which rows can be in its top-k.
// Pass 1 gives every encoded row an interval [lo, hi] that holds its exact float distance; with U the k-th
// smallest hi, a row with lo > U cannot be in the top-k (k rows have
// distance <= U, so the k-th smallest exact distance is <= U), ties
// included. Pass 2 re-scores the rest exactly. The interval is
// D~ -/+ r, with
//
//     D~ = norm(i) + |q|^2 - 2 * (sum_d q[d]*vmin[d] + s),
//     s  = DotU8F32(codes_i, w),  w[d] = fl(q[d] * scale[d]),
//
// where norm(i) and |q|^2 are the very doubles the exact expression uses.
// r covers, term by term:
//
//   1. Quantization: |q.x - q.x^| <= sum_d |q[d]| * delta[d], where delta[d]
//      is the largest |x[d] - x^[d]| over the encoded rows, measured in
//      double while encoding (clamped codes and reconstruction rounding are
//      measured, not assumed). Doubled, since D~ carries -2 q.x^.
//   2. The u8 kernel's float accumulation: each product is rounded once and
//      passes through at most m = ceil(dim/16) + 22 further roundings (its
//      chain, the fold, the reduction tree, the 15-element tail and the
//      final add), so |s - sum c[d] w[d]| <= gamma_m * 255 * sum |w[d]| with
//      gamma_m = m u / (1 - m u), u = 2^-24; plus w's own rounding,
//      255 * u/(1-u) * sum |w[d]|. Doubled.
//   3. Everything evaluated in double — the exact dot kernel, the stored
//      norms, sum q[d]*vmin[d], delta's own measurement and both distance
//      combines — errs by at most (dim + 64) * 2^-52 times the magnitudes
//      involved: 2 * (norm(i) + |q|^2 + sum |q[d] vmin[d]| + max |s|),
//      since |q.x| <= (|x|^2 + |q|^2) / 2.
//   4. The exact distance is stored as float(T) clamped at 0: rounding adds
//      2^-24 * |T| <= 2^-24 * (|D~| + terms 1-3). The clamp stays inside
//      the interval: when it fires, lo <= float(T) < 0, and hi is >= the
//      true distance, which is >= 0 (terms 1-3 bound D~ against it too).
//
// The scan charges r = slack + norm_slack * norm(i) + 2^-23 * |D~|, with
// terms 1-3 inflated by (1 + 2^-22): the doubled relative margins absorb
// the bound's own double rounding. Un-encoded rows take no bound: their
// exact distance enters the top-k directly and caps U as itself.
//
// Single-definition rule: the exact re-scoring goes through
// ExactRowDistance, whose one definition lives in vectordb.cc next to
// ScanRowsInto so the exact distance has a single codegen (see topk.h).

#ifndef METIS_SRC_VECTORDB_QUANTIZE_H_
#define METIS_SRC_VECTORDB_QUANTIZE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/vectordb/vectordb.h"

namespace metis {

// Row accessor for training/encoding: returns the float row at index i of a
// corpus of n rows. Cold paths only.
using RowAccessor = std::function<const float*(size_t)>;

// SQ code-row stride: dim padded up to 64 bytes (one cache line), mirroring
// RowPool's 16-float stride; bytes_per_row(kInt8) once the mirror is built.
size_t SqCodeStride(size_t dim);

// --- Training ----------------------------------------------------------------

// Per-dimension min/max affine params over the corpus. Constant dimensions
// get scale 0 (every code 0, zero reconstruction error). `workers` (may be
// null) splits the rows; min and max are order-free, so the params do not
// depend on it.
Int8Params TrainInt8(const RowAccessor& row, size_t n, size_t dim, ThreadPool* workers);

// --- Encoding ----------------------------------------------------------------

// Appends SQ code rows for pool rows [begin, end) to `out` and folds the
// rows' reconstruction error into out->sq_delta. Pure per-row transform:
// encoding rows in any grouping yields identical codes, which is why
// `workers` (may be null) can split the rows without changing a code. Grows
// `out`'s arrays once per call.
void EncodeRows(const Int8Params& sq, const RowPool& pool, size_t begin, size_t end,
                QuantizedCodes* out, ThreadPool* workers);

// --- Certified scan ------------------------------------------------------------

// Certified-scan query precompute (header comment): the u8 weights and the
// row-independent parts of the distance interval.
struct CertifiedQuery {
  std::vector<float, AlignedAllocator<float>> w;  // fl(q[d] * scale[d]), zero-padded.
  double qnorm = 0.0;       // |q|^2, the exact expression's value.
  double qv = 0.0;          // sum_d q[d] * vmin[d].
  double slack = 0.0;       // Terms 1-3 without the row norm's share, inflated.
  double norm_slack = 0.0;  // Term 3's coefficient on norm(i), inflated.
};
void BuildCertifiedQuery(const Int8Params& sq, const std::vector<double>& delta, const float* q,
                         size_t dim, double qnorm, CertifiedQuery* out);

// An interval that provably holds a row's exact float distance.
struct DistanceInterval {
  double lo;
  double hi;
};

// The interval of an encoded row with stored norm `norm` and u8 dot `s`
// (DotU8F32 of its codes against cq.w).
inline DistanceInterval CertifiedInterval(const CertifiedQuery& cq, double norm, float s) {
  constexpr double kFloatRounding = 0x1p-23;  // Term 4, doubled.
  double approx = norm + cq.qnorm - 2.0 * (cq.qv + static_cast<double>(s));
  double r = cq.slack + cq.norm_slack * norm + kFloatRounding * std::fabs(approx);
  return DistanceInterval{approx - r, approx + r};
}

// Exact fp32 distance of one pool row (pass 2's expression, and the tests'
// reference); the one definition lives in vectordb.cc so it shares the scan
// loop's codegen.
float ExactRowDistance(const RowPool& pool, size_t row, const float* q, double qnorm);

}  // namespace metis

#endif  // METIS_SRC_VECTORDB_QUANTIZE_H_
