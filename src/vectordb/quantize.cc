// SQ mirror training and encoding, and the certified scan's per-query bound
// (quantize.h).

#include "src/vectordb/quantize.h"

#include <algorithm>
#include <cmath>
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
  // Reserve exactly, then grow: appending row by row would leave up to 2x
  // the mirror's size resident.
  out->sq.reserve(rows * stride);
  out->sq.resize(rows * stride, 0);
  std::mutex delta_mu;
  auto encode = [&](size_t b, size_t e) {
    std::vector<double> delta(dim, 0.0);
    EncodeSqRange(sq, pool, begin + b, begin + e, first + b, out, &delta);
    // max is order-free, so the merged bound does not depend on the split.
    std::lock_guard<std::mutex> lock(delta_mu);
    for (size_t d = 0; d < dim; ++d) {
      out->sq_delta[d] = std::max(out->sq_delta[d], delta[d]);
    }
  };
  if (workers != nullptr && workers->num_threads() > 1 && end - begin > 1) {
    workers->ParallelFor(end - begin, encode);
  } else {
    encode(0, end - begin);
  }
  out->rows = rows;
}

// --- Certified scan ------------------------------------------------------------

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

}  // namespace metis
