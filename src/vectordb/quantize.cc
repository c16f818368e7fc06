// SQ mirror training and encoding, and the certified scan's per-query bound
// (quantize.h).

#include "src/vectordb/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>

#include "src/common/check.h"

namespace metis {

namespace {

constexpr size_t kSqStrideBytes = 64;  // Code-row alignment, one cache line.

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
  ParallelFor(workers, n, scan);
  params.vmin = std::move(vmin);
  params.scale.resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    float range = vmax[d] - params.vmin[d];
    params.scale[d] = range > 0 ? range / 255.0f : 0.0f;
  }
  return params;
}

// --- Encoding ----------------------------------------------------------------

namespace {

// Writes mirror rows [lo, hi) of block `b` of `out` (already sized), the
// codes of pool rows [lo - first + begin, hi - first + begin), and folds
// their per-dimension reconstruction error into `delta`. A code is
// round((x - vmin) / scale) clamped to [0, 255], rounding to nearest with
// ties to even: the divide and std::nearbyint every existing code was made
// with. Clamping before rounding changes no code (both bounds are integers
// and rounding is monotone), and adding and subtracting 2^23 is nearbyint
// on [0, 255] — the add leaves no fraction bits, the subtraction is exact —
// without the libm call that kept this loop scalar. The two code loops are
// branch-free so they vectorize; the row's codes then go out two at a time,
// one pair into each of the block's lines.
void EncodeSqBlock(const Int8Params& sq, const RowPool& pool, size_t begin, size_t first, size_t b,
                   size_t lo, size_t hi, QuantizedCodes* out, std::vector<double>* delta) {
  constexpr float kTwoPow23 = 8388608.0f;
  size_t dim = pool.dim();
  const float* __restrict vmin = sq.vmin.data();
  const float* __restrict scale = sq.scale.data();
  double* __restrict err = delta->data();
  std::vector<float> clamped(dim);
  float* __restrict t = clamped.data();
  std::vector<uint8_t> row_codes(out->sq_stride, 0);  // Zero past dim: the padding.
  uint8_t* __restrict codes = row_codes.data();
  uint8_t* block = out->sq.data() + b * kSqBlockRows * out->sq_stride;
  for (size_t m = lo; m < hi; ++m) {
    const float* __restrict r = pool.row(m - first + begin);
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
    uint8_t* dst = block + (m % kSqBlockRows) * 2;
    for (size_t p = 0; p < out->sq_stride / 2; ++p) {
      std::memcpy(dst + p * 2 * kSqBlockRows, codes + 2 * p, 2);
    }
  }
}

}  // namespace

void EncodeRows(const Int8Params& sq, const RowPool& pool, size_t begin, size_t end,
                QuantizedCodes* out, ThreadPool* workers) {
  size_t dim = pool.dim();
  METIS_CHECK_EQ(sq.vmin.size(), dim);
  size_t first = out->rows;
  size_t rows = first + (end - begin);
  size_t stride = SqCodeStride(dim);
  if (first == 0) {
    out->sq_stride = stride;
    out->sq_delta.assign(dim, 0.0);
  }
  METIS_CHECK_EQ(out->sq_stride, stride);
  // Reserve exactly, then grow: growing by appending would leave up to 2x
  // the mirror's size resident. New bytes are zero, so the last block's
  // padding rows hold code 0.
  size_t blocks = (rows + kSqBlockRows - 1) / kSqBlockRows;
  out->sq.reserve(blocks * kSqBlockRows * stride);
  out->sq.resize(blocks * kSqBlockRows * stride, 0);
  // Workers take whole blocks, so no two write to one block's lines; the
  // first block may already hold earlier rows, which stay as they are.
  size_t first_block = first / kSqBlockRows;
  std::mutex delta_mu;
  auto encode = [&](size_t bb, size_t be) {
    std::vector<double> delta(dim, 0.0);
    for (size_t b = first_block + bb; b < first_block + be; ++b) {
      size_t lo = std::max(first, b * kSqBlockRows);
      size_t hi = std::min(rows, (b + 1) * kSqBlockRows);
      EncodeSqBlock(sq, pool, begin, first, b, lo, hi, out, &delta);
    }
    // max is order-free, so the merged bound does not depend on the split.
    std::lock_guard<std::mutex> lock(delta_mu);
    for (size_t d = 0; d < dim; ++d) {
      out->sq_delta[d] = std::max(out->sq_delta[d], delta[d]);
    }
  };
  ParallelFor(workers, blocks - first_block, encode);
  out->rows = rows;
}

// --- Certified scan ------------------------------------------------------------

void BuildCertifiedQuery(const Int8Params& sq, const std::vector<double>& delta, const float* q,
                         size_t dim, double qnorm, CertifiedQuery* out) {
  METIS_CHECK_EQ(sq.vmin.size(), dim);
  METIS_CHECK_EQ(delta.size(), dim);
  const float* scale = sq.scale.data();
  // Every loop below visits q's nonzero coordinates only, in ascending
  // order. A zero coordinate's terms are all +-0 (vmin, scale and delta are
  // finite), and adding +-0 to a double sum that starts at +0 changes no
  // bit, so each sum equals the dense loop's over all of dim.
  std::vector<uint32_t> nonzero;
  nonzero.reserve(dim);
  for (size_t d = 0; d < dim; ++d) {
    if (q[d] != 0.0f) {
      nonzero.push_back(static_cast<uint32_t>(d));
    }
  }
  double qv = 0.0;
  double qv_abs = 0.0;
  double quant = 0.0;
  double wd_abs = 0.0;
  double wd_max = 0.0;
  for (uint32_t d : nonzero) {
    double wd = static_cast<double>(q[d]) * static_cast<double>(scale[d]);  // Exact.
    double qvmin = static_cast<double>(q[d]) * static_cast<double>(sq.vmin[d]);  // Exact.
    qv += qvmin;
    qv_abs += std::fabs(qvmin);
    quant += std::fabs(static_cast<double>(q[d])) * delta[d];
    wd_abs += std::fabs(wd);
    wd_max = std::max(wd_max, std::fabs(wd));
  }
  // One scale per query maps the largest weight to +-W. Adding and
  // subtracting 1.5 * 2^52 rounds to nearest (|x| <= W is far below 2^51);
  // the clamp is written so that a NaN weight clamps too. Term 2 is measured
  // on the weights as stored, so neither alpha's nor the reciprocal's
  // rounding needs a bound. The weights go out a pair at a time: `pending`
  // collects pair `pair`'s two until the walk leaves it.
  constexpr double kW = 32767.0;
  constexpr double kRound = 0x1.8p52;
  double alpha = wd_max / kW;
  double inv_alpha = wd_max > 0.0 ? kW / wd_max : 0.0;
  out->pairs.clear();
  int16_t pending[2] = {0, 0};
  uint32_t pair = 0;
  auto flush = [&] {
    if (pending[0] != 0 || pending[1] != 0) {
      out->pairs.push_back(U8PairWeight{pair, PackPairWeights(pending[0], pending[1])});
    }
    pending[0] = pending[1] = 0;
  };
  double err = 0.0;
  for (uint32_t d : nonzero) {
    double wd = static_cast<double>(q[d]) * static_cast<double>(scale[d]);
    double r = (wd * inv_alpha + kRound) - kRound;
    r = r < kW ? r : kW;
    r = r > -kW ? r : -kW;
    int16_t w = static_cast<int16_t>(r);
    err += std::fabs(wd - alpha * static_cast<double>(w));
    if (d / 2 != pair) {
      flush();
      pair = d / 2;
    }
    pending[d % 2] = w;
  }
  flush();
  // The bound, term by term (quantize.h).
  double s_err = 255.0 * err;                                      // Term 2.
  double s_max = 255.0 * (wd_abs + err);
  double gamma_f64 = (static_cast<double>(dim) + 64.0) * 0x1p-52;  // Term 3.
  constexpr double kMargin = 1.0 + 0x1p-22;
  out->alpha = alpha;
  out->qnorm = qnorm;
  out->qv = qv;
  out->slack = kMargin * (2.0 * quant + 2.0 * s_err + gamma_f64 * 2.0 * (qnorm + qv_abs + s_max)) +
               4.0 * static_cast<double>(std::numeric_limits<float>::denorm_min());
  out->norm_slack = kMargin * gamma_f64 * 2.0;
}

}  // namespace metis
