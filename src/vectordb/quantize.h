// Quantized index tiers: int8 scalar quantization (SQ) and product
// quantization (PQ), with an exact fp32 rerank tail — and the certified fp32
// scan, which reads the SQ mirror to prove which rows cannot be in the exact
// top-k.
//
// Both tiers are *mirrors*: the fp32 RowPool rows stay authoritative (and are
// what the rerank tail and the exact distance read); the mirrors are narrower
// parallel code arrays a scan streams instead — 4x narrower for SQ (1
// byte/dim), dim/m * 4x narrower for PQ (m bytes/row). Every static index
// builds the SQ mirror; QuantizationOptions only decides which explicit
// tiers a query may ask for (int8 reads the same codes; PQ has its own).
//
// Asymmetric distance contract (SQ). With per-dimension affine params
// (vmin[d], scale[d]) and codes c[d], the reconstructed row is
// vmin[d] + scale[d]*c[d], so with r[d] = q[d] - vmin[d]:
//
//     |q - x^|^2 = sum r[d]^2  -  2 * sum (r[d]*scale[d]) * c[d]
//                             +  sum (scale[d]*c[d])^2
//
// The first term and the weight vector w[d] = r[d]*scale[d] are per-query
// precomputes (O(dim), exact-kernel accumulation); the last term is a
// per-row constant computed once at encode time; the middle term is the hot
// loop — DotU8F32, the 16-chain widening kernel in kernels.h. The query side
// stays fp32 end to end: only the stored rows are quantized.
//
// Asymmetric distance contract (PQ). Per query, an ADC table holds the exact
// squared distance from the query's subvector s to every centroid c of
// subspace s; a row's approximate distance is the sum of its m table entries
// in subspace order (sequential float adds — deterministic).
//
// Rerank determinism rule. A quantized search over-fetches k * rerank_factor
// candidates under the (approx distance, order) total order — the same
// shard/thread/partition-invariant selection machinery as the exact path —
// then re-scores every candidate with the exact kernel and keeps the best k
// under (exact distance, order). For a fixed build and fixed (tier,
// rerank_factor) the result is therefore deterministic across shard counts,
// thread counts, and batching; and whenever the candidate set contains the
// true top-k, it is *identical* to the exact search result, distances and
// all. Candidates that enter the heap with an exact distance already
// (memtable rows, un-encoded suffixes, tiers without mirrors) pass through
// rerank untouched.
//
// Certified fp32 scan (CertifiedQuery below; the scan itself lives in
// vectordb.cc). Where the tiers above *hope* their candidates contain the
// top-k, the fp32 read *proves* it. Pass 1 gives every encoded row an
// interval [lo, hi] that holds its exact float distance; with U the k-th
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
// Single-definition rule: the quantized scan loops live in quantize.cc only
// (mutable segments and static shards must score codes identically), and the
// exact re-scoring goes through ExactRowDistance, whose one definition lives
// in vectordb.cc next to ScanRowsInto for the same codegen-uniqueness reason
// (see topk.h).

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
// RowPool's 16-float stride. This is also the int8 tier's bytes/row.
size_t SqCodeStride(size_t dim);

// --- Training ----------------------------------------------------------------

// Per-dimension min/max affine params over the corpus. Constant dimensions
// get scale 0 (every code 0, zero reconstruction error). `workers` (may be
// null) splits the rows; min and max are order-free, so the params do not
// depend on it.
Int8Params TrainInt8(const RowAccessor& row, size_t n, size_t dim, ThreadPool* workers);

// Deterministic per-subspace k-means (farthest-point seeding + Lloyd rounds,
// the IvfL2Index::Train recipe) over a strided sample of at most
// opts.pq_train_rows rows. opts.pq_m is clamped down to the nearest divisor
// of dim. ncentroids = min(256, sample size).
PqParams TrainPq(const RowAccessor& row, size_t n, size_t dim, const QuantizationOptions& opts,
                 uint64_t seed);

// Trains the SQ mirror's quantizer (always) into *mirror, and the explicit
// tiers `opts` enables into *tiers (tiers->sq is a copy of *mirror iff
// opts.sq; TrainInt8 is a pure min/max, so the int8 tier's codes are the
// mirror's codes).
void TrainQuantizers(const RowAccessor& row, size_t n, size_t dim, const QuantizationOptions& opts,
                     uint64_t seed, ThreadPool* workers, Int8Params* mirror,
                     IndexQuantizers* tiers);

// --- Encoding ----------------------------------------------------------------

// Appends code rows for pool rows [begin, end) to `out` (SQ and/or PQ,
// whichever params are valid) and folds the rows' SQ reconstruction error
// into out->sq_delta. Pure per-row transform: encoding rows in any grouping
// yields identical codes, so static shards, sealed segments, and compacted
// segments all land in the same code space — which is also why `workers`
// (may be null) can split the rows without changing a code. Grows `out`'s
// arrays once per call.
void EncodeRows(const Int8Params& sq, const PqParams& pq, const RowPool& pool, size_t begin,
                size_t end, QuantizedCodes* out, ThreadPool* workers);

// --- Per-query contexts ------------------------------------------------------

// SQ query precompute: w[d] = (q[d] - vmin[d]) * scale[d] plus the exact
// sum of (q[d] - vmin[d])^2 (strict-kernel accumulation).
struct SqQuery {
  std::vector<float, AlignedAllocator<float>> w;
  double r2 = 0.0;
};
void BuildSqQuery(const Int8Params& sq, const float* q, size_t dim, SqQuery* out);

// PQ query precompute: the ADC table, table[s * ncentroids + c] = squared
// distance from query subvector s to centroid (s, c). Built once per query
// per SearchBatch.
struct PqQuery {
  std::vector<float> table;
};
void BuildPqQuery(const PqParams& pq, const float* q, size_t dim, PqQuery* out);

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

// --- Quantized top-k ---------------------------------------------------------

// BoundedTopK's twin over QuantCand: same (dist, order) total order, same
// bounded max-heap, candidates carry their row location for the rerank tail.
// Comparison-only — safe to inline anywhere (topk.h).
class BoundedQuantTopK {
 public:
  explicit BoundedQuantTopK(size_t k) : k_(k) { heap_.reserve(k); }

  void Offer(float dist, size_t order, ChunkId id, const RowPool* pool, uint32_t row);
  void OfferCand(const QuantCand& c) { Offer(c.dist, c.order, c.id, c.pool, c.row); }

  // Ascending (dist, order); clears the heap.
  std::vector<QuantCand> DrainCands();
  const std::vector<QuantCand>& cands() const { return heap_; }

 private:
  size_t k_;
  std::vector<QuantCand> heap_;
};

// --- Scans (single definitions in quantize.cc) -------------------------------

// Scores pool rows [begin, end) against the SQ query context and offers
// survivors of `exclude` to `out`. Row i reads code row (i - begin) +
// code_lo of `codes`; candidate order is base + orders[i]. Requires
// codes.sq to cover that range.
void ScanSqRowsInto(const QuantizedCodes& codes, size_t code_lo, const RowPool& pool,
                    size_t begin, size_t end, const SqQuery& sq, const size_t* orders,
                    size_t base, const IdFilter& exclude, BoundedQuantTopK& out);

// Same shape for the PQ tier (ADC table lookups).
void ScanPqRowsInto(const QuantizedCodes& codes, size_t code_lo, const RowPool& pool,
                    size_t begin, size_t end, const PqQuery& pq, size_t pq_m,
                    const size_t* orders, size_t base, const IdFilter& exclude,
                    BoundedQuantTopK& out);

// Exact-distance scan into a quantized-candidate heap (memtable rows,
// un-encoded suffixes, and whole-index fp32 fallbacks). Distances come out
// bit-identical to ScanRowsInto — defined in vectordb.cc under the
// single-codegen rule. Candidates are marked pool == nullptr (distance
// already exact), so the rerank tail passes them through.
void ScanRowsExactInto(const RowPool& pool, size_t begin, size_t end, const float* q,
                       double qnorm, const size_t* orders, size_t base, const IdFilter& exclude,
                       BoundedQuantTopK& out);

// Exact fp32 distance of one pool row (the rerank tail's scorer); the one
// definition lives in vectordb.cc so it shares the scan loop's codegen.
float ExactRowDistance(const RowPool& pool, size_t row, const float* q, double qnorm);

// --- Rerank tail -------------------------------------------------------------

// Re-scores every candidate with pool != nullptr via ExactRowDistance, sorts
// by (exact distance, order), truncates to k. Candidates with pool == nullptr
// keep their (already exact) distance.
void RerankCandidates(std::vector<QuantCand>& cands, const float* q, double qnorm, size_t k);

// RerankCandidates, then strip to SearchHit form.
std::vector<SearchHit> RerankToHits(std::vector<QuantCand> cands, const float* q, double qnorm,
                                    size_t k);

// --- Tier resolution ---------------------------------------------------------

// The tier a query actually scans on: quality.precision downgraded to kFp32
// when `qz` is null or lacks the requested mirror. "Absent mirror" can only
// mean a more exact answer, never a wrong one.
inline RetrievalPrecision ResolveTier(const RetrievalQuality& quality, const IndexQuantizers* qz) {
  switch (quality.precision) {
    case RetrievalPrecision::kInt8:
      return (qz != nullptr && qz->sq.valid()) ? RetrievalPrecision::kInt8
                                               : RetrievalPrecision::kFp32;
    case RetrievalPrecision::kPq:
      return (qz != nullptr && qz->pq.valid()) ? RetrievalPrecision::kPq
                                               : RetrievalPrecision::kFp32;
    case RetrievalPrecision::kFp32:
      break;
  }
  return RetrievalPrecision::kFp32;
}

}  // namespace metis

#endif  // METIS_SRC_VECTORDB_QUANTIZE_H_
