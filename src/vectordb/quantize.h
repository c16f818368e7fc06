// The int8 SQ mirror and the certified fp32 scan that reads it.
//
// The mirror is a narrower parallel code array beside each RowPool an index
// scans (the flat pool, each IVF inverted list): 1 byte per dimension
// instead of 4. The fp32 rows stay authoritative — every reported distance
// is the exact expression over them — and the mirror only lets a scan prove
// which rows cannot be in the exact top-k. Every static index builds it
// (BuildQuantizedMirrors).
//
// Encoding. With per-dimension affine params (vmin[d], scale[d]) trained
// over the rows, code c[d] = round((x[d] - vmin[d]) / scale[d]) clamped to
// [0, 255], and the reconstructed row is vmin[d] + scale[d] * c[d].
//
// Layout. A row keeps SqCodeStride(dim) bytes (dim padded to 64), stored
// pair-blocked: rows go in blocks of 32, and dimension pair p of a block is
// one 64-byte line holding (c[2p], c[2p+1]) for each of the block's rows
// (QuantizedCodes::block, ::code). The last block is zero-padded, so a
// mirror holds at most 31 rows of padding. The hot loop is the block kernel
// in kernels.h: it scores a block's 32 rows at once against int16 weights
// scaled once per query, and reads only the lines of the pairs where the
// query has a nonzero weight — the catalog embedder's sparse queries list a
// few dozen of dim / 2 pairs, and a dense query lists them all.
//
// Certified fp32 scan (CertifiedQuery below; the scan itself lives in
// vectordb.cc). The fp32 read *proves* which rows can be in its top-k.
// Pass 1 gives every encoded row an interval [lo, hi] that holds its exact float distance; with U the k-th
// smallest hi, a row with lo > U cannot be in the top-k (k rows have
// distance <= U, so the k-th smallest exact distance is <= U), ties
// included. Pass 2 re-scores the rest exactly. The interval is
// D~ -/+ r, with
//
//     D~    = norm(i) + |q|^2 - 2 * (sum_d q[d]*vmin[d] + s),
//     s     = alpha * S,  S = sum_d c[d] * w16[d], the block kernel's dot,
//     wd[d] = q[d] * scale[d]  (exact in double),
//     alpha = max_d |wd[d]| / W,  W = 32767  (alpha = 0 when every wd is 0),
//     w16[d] = round(wd[d] / alpha) clamped to [-W, W],
//
// where norm(i) and |q|^2 are the very doubles the exact expression uses.
// S is an exact integer, and converts to double exactly (|S| <= 255 * W *
// dim < 2^53 for dim < 2^30). r covers, term by term:
//
//   1. Quantization: |q.x - q.x^| <= sum_d |q[d]| * delta[d], where delta[d]
//      is the largest |x[d] - x^[d]| over the encoded rows, measured in
//      double while encoding (clamped codes and reconstruction rounding are
//      measured, not assumed). Doubled, since D~ carries -2 q.x^.
//   2. Weight rounding: sum_d c[d] * wd[d] - alpha * S is
//      sum_d c[d] * (wd[d] - alpha * w16[d]) for any alpha and w16, so it is
//      at most 255 * E in magnitude, with E = sum_d |wd[d] - alpha * w16[d]|
//      taken over the clamped w16. Nothing else errs before s: S is exact.
//      Doubled.
//   3. Everything evaluated in double — the exact dot kernel, the stored
//      norms, sum q[d]*vmin[d], delta's own measurement, s = alpha * S, E
//      itself and both distance combines — errs by at most
//      (dim + 64) * 2^-52 times the magnitudes involved:
//      2 * (norm(i) + |q|^2 + sum |q[d] vmin[d]| + max |s|), since
//      |q.x| <= (|x|^2 + |q|^2) / 2, with
//      max |s| = 255 * (sum |wd[d]| + E) >= 255 * alpha * sum |w16[d]|.
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
// `workers` (may be null) can split the rows — one 32-row block at a time —
// without changing a code. Grows `out`'s arrays once per call.
void EncodeRows(const Int8Params& sq, const RowPool& pool, size_t begin, size_t end,
                QuantizedCodes* out, ThreadPool* workers);

// --- Certified scan ------------------------------------------------------------

// Certified-scan query precompute (header comment): the int16 weights and
// the row-independent parts of the distance interval.
struct CertifiedQuery {
  // Every dimension pair with a nonzero w16[2p] or w16[2p+1], ascending by p,
  // its two weights packed as the block kernel reads them. A pair not listed
  // adds 0 to every S.
  std::vector<U8PairWeight> pairs;
  double alpha = 0.0;       // The weights' scale: s = alpha * S.
  double qnorm = 0.0;       // |q|^2, the exact expression's value.
  double qv = 0.0;          // sum_d q[d] * vmin[d].
  double slack = 0.0;       // Terms 1-3 without the row norm's share, inflated.
  double norm_slack = 0.0;  // Term 3's coefficient on norm(i), inflated.
};
// Visits only q's nonzero coordinates: every term of a zero one is +-0.
void BuildCertifiedQuery(const Int8Params& sq, const std::vector<double>& delta, const float* q,
                         size_t dim, double qnorm, CertifiedQuery* out);

// An interval that provably holds a row's exact float distance.
struct DistanceInterval {
  double lo;
  double hi;
};

// The interval of an encoded row with stored norm `norm` and integer dot `s`
// (the block kernel's dot of its codes against cq.pairs).
inline DistanceInterval CertifiedInterval(const CertifiedQuery& cq, double norm, int64_t s) {
  constexpr double kFloatRounding = 0x1p-23;  // Term 4, doubled.
  double approx = norm + cq.qnorm - 2.0 * (cq.qv + cq.alpha * static_cast<double>(s));
  double r = cq.slack + cq.norm_slack * norm + kFloatRounding * std::fabs(approx);
  return DistanceInterval{approx - r, approx + r};
}

// Exact fp32 distance of one pool row (pass 2's expression, and the tests'
// reference); the one definition lives in vectordb.cc so it shares the scan
// loop's codegen.
float ExactRowDistance(const RowPool& pool, size_t row, const float* q, double qnorm);

}  // namespace metis

#endif  // METIS_SRC_VECTORDB_QUANTIZE_H_
