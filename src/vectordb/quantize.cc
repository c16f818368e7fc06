// Quantizer training, encoding, and the quantized scan loops. Single
// definitions (see quantize.h): every structure that scores codes — static
// shards, IVF list shards, sealed segments, compacted segments — goes through
// the functions in this TU, so quantized distances cannot depend on which
// structure a row currently lives in.

#include "src/vectordb/quantize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/vectordb/kernels.h"

namespace metis {

namespace {

constexpr size_t kSqStrideBytes = 64;  // Code-row alignment, one cache line.

// Squared L2 between two float spans, sequential double accumulation. Cold
// paths only (training, ADC table build uses the strict kernel instead).
double SeqSquaredDist(const float* a, const float* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

}  // namespace

size_t SqCodeStride(size_t dim) {
  return (dim + kSqStrideBytes - 1) / kSqStrideBytes * kSqStrideBytes;
}

// --- Training ----------------------------------------------------------------

Int8Params TrainInt8(const RowAccessor& row, size_t n, size_t dim, ThreadPool* workers) {
  Int8Params params;
  if (n == 0) {
    return params;
  }
  std::vector<float> vmin(dim, std::numeric_limits<float>::max());
  std::vector<float> vmax(dim, std::numeric_limits<float>::lowest());
  std::mutex range_mu;  // Guards vmin / vmax while workers fold in.
  auto scan = [&](size_t begin, size_t end) {
    std::vector<float> lo(dim, std::numeric_limits<float>::max());
    std::vector<float> hi(dim, std::numeric_limits<float>::lowest());
    for (size_t i = begin; i < end; ++i) {
      const float* r = row(i);
      for (size_t d = 0; d < dim; ++d) {
        lo[d] = std::min(lo[d], r[d]);
        hi[d] = std::max(hi[d], r[d]);
      }
    }
    // min and max are order-free: any split gives the same range.
    std::lock_guard<std::mutex> lock(range_mu);
    for (size_t d = 0; d < dim; ++d) {
      vmin[d] = std::min(vmin[d], lo[d]);
      vmax[d] = std::max(vmax[d], hi[d]);
    }
  };
  if (workers != nullptr && workers->num_threads() > 1 && n > 1) {
    workers->ParallelFor(n, scan);
  } else {
    scan(0, n);
  }
  params.vmin = std::move(vmin);
  params.scale.resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    float range = vmax[d] - params.vmin[d];
    params.scale[d] = range > 0 ? range / 255.0f : 0.0f;
  }
  return params;
}

PqParams TrainPq(const RowAccessor& row, size_t n, size_t dim, const QuantizationOptions& opts,
                 uint64_t seed) {
  PqParams params;
  if (n == 0) {
    return params;
  }
  size_t m = std::max<size_t>(1, std::min(opts.pq_m, dim));
  while (dim % m != 0) {
    --m;
  }
  size_t dsub = dim / m;

  // Deterministic strided sample: row indices 0, step, 2*step, ...
  size_t cap = std::max<size_t>(1, opts.pq_train_rows);
  size_t step = (n + cap - 1) / cap;
  std::vector<size_t> sample;
  for (size_t i = 0; i < n; i += step) {
    sample.push_back(i);
  }
  size_t ns = sample.size();
  size_t nc = std::min<size_t>(256, ns);

  params.m = m;
  params.dsub = dsub;
  params.ncentroids = nc;
  params.centroids.assign(m * nc * dsub, 0.0f);

  std::vector<float> cent(nc * dsub);
  std::vector<float> nearest_d(ns);
  std::vector<size_t> assign(ns);
  for (size_t s = 0; s < m; ++s) {
    size_t off = s * dsub;
    auto sub = [&](size_t si) { return row(sample[si]) + off; };
    // Farthest-point seeding (the IvfL2Index::Train recipe, per subspace).
    Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (s + 1)));
    size_t seed_i = rng.Index(ns);
    std::copy(sub(seed_i), sub(seed_i) + dsub, cent.begin());
    std::fill(nearest_d.begin(), nearest_d.end(), std::numeric_limits<float>::max());
    size_t seeded = 1;
    auto absorb = [&](size_t c) {
      const float* cv = cent.data() + c * dsub;
      for (size_t si = 0; si < ns; ++si) {
        float d = static_cast<float>(SeqSquaredDist(sub(si), cv, dsub));
        nearest_d[si] = std::min(nearest_d[si], d);
      }
    };
    absorb(0);
    while (seeded < nc) {
      size_t best_i = 0;
      float best_d = -1;
      for (size_t si = 0; si < ns; ++si) {
        if (nearest_d[si] > best_d) {
          best_d = nearest_d[si];
          best_i = si;
        }
      }
      std::copy(sub(best_i), sub(best_i) + dsub, cent.begin() + seeded * dsub);
      absorb(seeded);
      ++seeded;
    }
    // Lloyd rounds: serial, in sample order — deterministic.
    for (size_t round = 0; round < std::max<size_t>(1, opts.pq_train_iters); ++round) {
      for (size_t si = 0; si < ns; ++si) {
        size_t best_c = 0;
        double best_d = std::numeric_limits<double>::max();
        for (size_t c = 0; c < nc; ++c) {
          double d = SeqSquaredDist(sub(si), cent.data() + c * dsub, dsub);
          if (d < best_d) {
            best_d = d;
            best_c = c;
          }
        }
        assign[si] = best_c;
      }
      std::vector<double> sums(nc * dsub, 0.0);
      std::vector<size_t> counts(nc, 0);
      for (size_t si = 0; si < ns; ++si) {
        const float* v = sub(si);
        double* sum = sums.data() + assign[si] * dsub;
        for (size_t d = 0; d < dsub; ++d) {
          sum[d] += v[d];
        }
        ++counts[assign[si]];
      }
      for (size_t c = 0; c < nc; ++c) {
        if (counts[c] > 0) {
          for (size_t d = 0; d < dsub; ++d) {
            cent[c * dsub + d] =
                static_cast<float>(sums[c * dsub + d] / static_cast<double>(counts[c]));
          }
        }
      }
    }
    std::copy(cent.begin(), cent.begin() + nc * dsub,
              params.centroids.begin() + s * nc * dsub);
  }
  return params;
}

void TrainQuantizers(const RowAccessor& row, size_t n, size_t dim, const QuantizationOptions& opts,
                     uint64_t seed, ThreadPool* workers, Int8Params* mirror,
                     IndexQuantizers* tiers) {
  *mirror = TrainInt8(row, n, dim, workers);
  *tiers = IndexQuantizers{};
  if (opts.sq) {
    tiers->sq = *mirror;
  }
  if (opts.pq) {
    tiers->pq = TrainPq(row, n, dim, opts, seed);
  }
}

// --- Encoding ----------------------------------------------------------------

namespace {

// Writes SQ code rows [first, first + (end - begin)) of `out` (already sized)
// for pool rows [begin, end) and folds their per-dimension reconstruction
// error into `delta`. A code is round((x - vmin) / scale) clamped to
// [0, 255], rounding to nearest with ties to even: the divide and
// std::nearbyint every existing code was made with. Clamping before
// rounding changes no code (both bounds are integers and rounding is
// monotone), and adding and subtracting 2^23 is nearbyint on [0, 255] — the
// add leaves no fraction bits, the subtraction is exact — without the libm
// call that kept this loop scalar. The two code loops are branch-free so
// they vectorize.
void EncodeSqRange(const Int8Params& sq, const RowPool& pool, size_t begin, size_t end,
                   size_t first, QuantizedCodes* out, std::vector<double>* delta) {
  constexpr float kTwoPow23 = 8388608.0f;
  size_t dim = pool.dim();
  const float* __restrict vmin = sq.vmin.data();
  const float* __restrict scale = sq.scale.data();
  double* __restrict err = delta->data();
  std::vector<float> clamped(dim);
  float* __restrict t = clamped.data();
  for (size_t i = begin; i < end; ++i) {
    const float* __restrict r = pool.row(i);
    uint8_t* __restrict codes = out->sq.data() + (first + i - begin) * out->sq_stride;
    for (size_t d = 0; d < dim; ++d) {
      float x = (r[d] - vmin[d]) / scale[d];
      x = 0.0f < x ? x : 0.0f;  // Also NaN (a constant dimension's 0 / 0) -> 0.
      x = x < 255.0f ? x : 255.0f;
      t[d] = scale[d] > 0.0f ? x : 0.0f;
    }
    for (size_t d = 0; d < dim; ++d) {
      float code = (t[d] + kTwoPow23) - kTwoPow23;
      codes[d] = static_cast<uint8_t>(static_cast<int32_t>(code));
      double e = std::fabs(static_cast<double>(r[d]) -
                           (static_cast<double>(vmin[d]) +
                            static_cast<double>(scale[d]) * static_cast<double>(code)));
      err[d] = err[d] < e ? e : err[d];
    }
  }
  // The int8 tier's row constants: each row's sum over d in d order, as ever,
  // but four rows at a time so their dependency chains overlap.
  auto code_row = [&](size_t k) { return out->sq.data() + (first + k) * out->sq_stride; };
  size_t n = end - begin;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const uint8_t* c0 = code_row(k);
    const uint8_t* c1 = code_row(k + 1);
    const uint8_t* c2 = code_row(k + 2);
    const uint8_t* c3 = code_row(k + 3);
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      double sc = scale[d];
      double r0 = sc * c0[d], r1 = sc * c1[d], r2 = sc * c2[d], r3 = sc * c3[d];
      a0 += r0 * r0;
      a1 += r1 * r1;
      a2 += r2 * r2;
      a3 += r3 * r3;
    }
    out->sq_row_const[first + k] = a0;
    out->sq_row_const[first + k + 1] = a1;
    out->sq_row_const[first + k + 2] = a2;
    out->sq_row_const[first + k + 3] = a3;
  }
  for (; k < n; ++k) {
    const uint8_t* c = code_row(k);
    double a = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      double r = static_cast<double>(scale[d]) * c[d];
      a += r * r;
    }
    out->sq_row_const[first + k] = a;
  }
}

// Writes PQ code rows [dst, dst + (end - begin)) of `out` (already sized).
void EncodePqRange(const PqParams& pq, const RowPool& pool, size_t begin, size_t end, size_t dst,
                   QuantizedCodes* out) {
  size_t m = pq.m;
  size_t dsub = pq.dsub;
  size_t nc = pq.ncentroids;
  for (size_t i = begin; i < end; ++i, ++dst) {
    const float* r = pool.row(i);
    for (size_t s = 0; s < m; ++s) {
      const float* sub = r + s * dsub;
      const float* cents = pq.centroids.data() + s * nc * dsub;
      size_t best_c = 0;
      double best_d = std::numeric_limits<double>::max();
      for (size_t c = 0; c < nc; ++c) {
        double d = SeqSquaredDist(sub, cents + c * dsub, dsub);
        if (d < best_d) {
          best_d = d;
          best_c = c;
        }
      }
      out->pq[dst * m + s] = static_cast<uint8_t>(best_c);
    }
  }
}

}  // namespace

void EncodeRows(const Int8Params& sq, const PqParams& pq, const RowPool& pool, size_t begin,
                size_t end, QuantizedCodes* out, ThreadPool* workers) {
  size_t dim = pool.dim();
  size_t first = out->rows;
  size_t rows = first + (end - begin);
  if (sq.valid()) {
    METIS_CHECK_EQ(sq.vmin.size(), dim);
    size_t stride = SqCodeStride(dim);
    if (first == 0) {
      out->sq_stride = stride;
      out->sq_delta.assign(dim, 0.0);
    }
    METIS_CHECK_EQ(out->sq_stride, stride);
    // Reserve exactly, then grow: appending row by row would leave up to 2x
    // the mirror's size resident.
    out->sq.reserve(rows * stride);
    out->sq.resize(rows * stride, 0);
    out->sq_row_const.reserve(rows);
    out->sq_row_const.resize(rows);
  }
  if (pq.valid()) {
    METIS_CHECK_EQ(pq.m * pq.dsub, dim);
    out->pq.reserve(rows * pq.m);
    out->pq.resize(rows * pq.m);
  }
  std::mutex delta_mu;
  auto encode = [&](size_t b, size_t e) {
    if (sq.valid()) {
      std::vector<double> delta(dim, 0.0);
      EncodeSqRange(sq, pool, begin + b, begin + e, first + b, out, &delta);
      // max is order-free, so the merged bound does not depend on the split.
      std::lock_guard<std::mutex> lock(delta_mu);
      for (size_t d = 0; d < dim; ++d) {
        out->sq_delta[d] = std::max(out->sq_delta[d], delta[d]);
      }
    }
    if (pq.valid()) {
      EncodePqRange(pq, pool, begin + b, begin + e, first + b, out);
    }
  };
  if (workers != nullptr && workers->num_threads() > 1 && end - begin > 1) {
    workers->ParallelFor(end - begin, encode);
  } else {
    encode(0, end - begin);
  }
  out->rows = rows;
}

// --- Per-query contexts ------------------------------------------------------

void BuildSqQuery(const Int8Params& sq, const float* q, size_t dim, SqQuery* out) {
  size_t stride = SqCodeStride(dim);
  out->w.assign(stride, 0.0f);
  std::vector<float> r(dim);
  for (size_t d = 0; d < dim; ++d) {
    r[d] = q[d] - sq.vmin[d];
    out->w[d] = r[d] * sq.scale[d];
  }
  // Exact-kernel accumulation: tier-invariant, like every stored norm.
  out->r2 = SquaredNormBlocked(r.data(), dim);
}

void BuildCertifiedQuery(const Int8Params& sq, const std::vector<double>& delta, const float* q,
                         size_t dim, double qnorm, CertifiedQuery* out) {
  METIS_CHECK_EQ(sq.vmin.size(), dim);
  METIS_CHECK_EQ(delta.size(), dim);
  out->w.assign(SqCodeStride(dim), 0.0f);
  double qv = 0.0;
  double qv_abs = 0.0;
  double quant = 0.0;
  double w_abs = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    out->w[d] = q[d] * sq.scale[d];
    double qvmin = static_cast<double>(q[d]) * static_cast<double>(sq.vmin[d]);  // Exact.
    qv += qvmin;
    qv_abs += std::fabs(qvmin);
    quant += std::fabs(static_cast<double>(q[d])) * delta[d];
    w_abs += std::fabs(static_cast<double>(out->w[d]));
  }
  // The bound, term by term (quantize.h).
  constexpr double kU = 0x1p-24;
  double depth = std::ceil(static_cast<double>(dim) / 16.0) + 22.0;
  double gamma_u8 = depth * kU / (1.0 - depth * kU);
  double s_err = 255.0 * w_abs * (gamma_u8 + kU / (1.0 - kU));  // Term 2.
  double s_max = 255.0 * w_abs + s_err;
  double gamma_f64 = (static_cast<double>(dim) + 64.0) * 0x1p-52;  // Term 3.
  constexpr double kMargin = 1.0 + 0x1p-22;
  out->qnorm = qnorm;
  out->qv = qv;
  out->slack = kMargin * (2.0 * quant + 2.0 * s_err + gamma_f64 * 2.0 * (qnorm + qv_abs + s_max)) +
               4.0 * static_cast<double>(std::numeric_limits<float>::denorm_min());
  out->norm_slack = kMargin * gamma_f64 * 2.0;
}

void BuildPqQuery(const PqParams& pq, const float* q, size_t dim, PqQuery* out) {
  METIS_CHECK_EQ(pq.m * pq.dsub, dim);
  size_t nc = pq.ncentroids;
  out->table.resize(pq.m * nc);
  std::vector<float> diff(pq.dsub);
  for (size_t s = 0; s < pq.m; ++s) {
    const float* sub = q + s * pq.dsub;
    const float* cents = pq.centroids.data() + s * nc * pq.dsub;
    for (size_t c = 0; c < nc; ++c) {
      const float* cv = cents + c * pq.dsub;
      for (size_t d = 0; d < pq.dsub; ++d) {
        diff[d] = sub[d] - cv[d];
      }
      // Strict kernel: the table entry is bit-identical on every tier.
      out->table[s * nc + c] = static_cast<float>(SquaredNormBlocked(diff.data(), pq.dsub));
    }
  }
}

// --- Quantized top-k ---------------------------------------------------------

namespace {

inline bool QuantCandLess(const QuantCand& a, const QuantCand& b) {
  if (a.dist != b.dist) {
    return a.dist < b.dist;
  }
  return a.order < b.order;
}

}  // namespace

void BoundedQuantTopK::Offer(float dist, size_t order, ChunkId id, const RowPool* pool,
                             uint32_t row) {
  if (k_ == 0) {
    return;
  }
  if (heap_.size() < k_) {
    heap_.push_back(QuantCand{dist, order, id, pool, row});
    std::push_heap(heap_.begin(), heap_.end(), QuantCandLess);
    return;
  }
  const QuantCand& worst = heap_.front();
  if (dist > worst.dist || (dist == worst.dist && order > worst.order)) {
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), QuantCandLess);
  heap_.back() = QuantCand{dist, order, id, pool, row};
  std::push_heap(heap_.begin(), heap_.end(), QuantCandLess);
}

std::vector<QuantCand> BoundedQuantTopK::DrainCands() {
  std::sort_heap(heap_.begin(), heap_.end(), QuantCandLess);
  std::vector<QuantCand> out = std::move(heap_);
  heap_.clear();
  return out;
}

// --- Scans -------------------------------------------------------------------

void ScanSqRowsInto(const QuantizedCodes& codes, size_t code_lo, const RowPool& pool,
                    size_t begin, size_t end, const SqQuery& sq, const size_t* orders,
                    size_t base, const IdFilter& exclude, BoundedQuantTopK& out) {
  U8DotKernelFn dot = ActiveU8DotKernel();
  size_t dim = pool.dim();
  size_t stride = codes.sq_stride;
  bool filtered = !exclude.empty();
  for (size_t i = begin; i < end; ++i) {
    if (filtered && exclude.contains(pool.id(i))) {
      continue;
    }
    size_t ci = code_lo + (i - begin);
    float s = dot(codes.sq.data() + ci * stride, sq.w.data(), dim);
    float d = static_cast<float>(sq.r2 - 2.0 * static_cast<double>(s) + codes.sq_row_const[ci]);
    if (d < 0.0f) {
      d = 0.0f;  // Same clamp rule as the exact decomposition.
    }
    out.Offer(d, base + orders[i], pool.id(i), &pool, static_cast<uint32_t>(i));
  }
}

void ScanPqRowsInto(const QuantizedCodes& codes, size_t code_lo, const RowPool& pool,
                    size_t begin, size_t end, const PqQuery& pq, size_t pq_m,
                    const size_t* orders, size_t base, const IdFilter& exclude,
                    BoundedQuantTopK& out) {
  size_t nc = pq.table.size() / pq_m;
  bool filtered = !exclude.empty();
  for (size_t i = begin; i < end; ++i) {
    if (filtered && exclude.contains(pool.id(i))) {
      continue;
    }
    const uint8_t* c = codes.pq.data() + (code_lo + (i - begin)) * pq_m;
    float d = 0.0f;
    for (size_t s = 0; s < pq_m; ++s) {
      d += pq.table[s * nc + c[s]];  // Sequential adds: deterministic.
    }
    out.Offer(d, base + orders[i], pool.id(i), &pool, static_cast<uint32_t>(i));
  }
}

// --- Rerank tail -------------------------------------------------------------

void RerankCandidates(std::vector<QuantCand>& cands, const float* q, double qnorm, size_t k) {
  for (QuantCand& c : cands) {
    if (c.pool != nullptr) {
      c.dist = ExactRowDistance(*c.pool, c.row, q, qnorm);
    }
  }
  std::sort(cands.begin(), cands.end(), QuantCandLess);
  if (cands.size() > k) {
    cands.resize(k);
  }
}

std::vector<SearchHit> RerankToHits(std::vector<QuantCand> cands, const float* q, double qnorm,
                                    size_t k) {
  RerankCandidates(cands, q, qnorm, k);
  std::vector<SearchHit> hits;
  hits.reserve(cands.size());
  for (const QuantCand& c : cands) {
    hits.push_back(SearchHit{c.id, c.dist});
  }
  return hits;
}

}  // namespace metis
