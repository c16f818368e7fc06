// Tests for the int8 SQ mirror (src/vectordb/quantize.h) that every index's
// certified scan reads:
//
//   - Block kernel exactness: the 32 dots of a pair-blocked block equal an
//     int64 reference loop on every supported tier, for random pair subsets,
//     an empty list, and all 512 pairs at the weight extremes, where an int32
//     lane that wrapped would show.
//   - Certified query: the sparse BuildCertifiedQuery equals the dense recipe
//     (kept here) in every field, bit for bit.
//   - Encoding: codes and the measured reconstruction-error bound follow the
//     per-element nearbyint recipe for any worker split and any grouping of
//     rows into EncodeRows calls, read through the pair-blocked layout; the
//     last block's padding holds code 0.
//   - bytes_per_row: kInt8 reports the mirror's code stride once the flat or
//     IVF index has built it, and 0 before.
//
// certified_scan_test covers what the scan does with the mirror.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/vectordb/kernels.h"
#include "src/vectordb/quantize.h"
#include "src/vectordb/vectordb.h"
#include "tests/fixtures/clustered_corpus.h"

namespace metis {
namespace {

std::vector<KernelTarget> SupportedTargets() {
  std::vector<KernelTarget> targets;
  for (KernelTarget t : {KernelTarget::kScalar, KernelTarget::kAvx2}) {
    if (KernelTargetSupported(t)) {
      targets.push_back(t);
    }
  }
  return targets;
}

// --- Block kernel exactness --------------------------------------------------

struct ScopedKernelTarget {
  explicit ScopedKernelTarget(KernelTarget t) { METIS_CHECK(SetKernelTarget(t)); }
  ~ScopedKernelTarget() { ResetKernelTarget(); }
};

// One 32-row block of `pairs_per_row` dimension pairs, written straight from
// the layout's definition (kernels.h), beside the row-major codes it holds.
struct TestBlock {
  explicit TestBlock(size_t pairs_per_row)
      : rows(kSqBlockRows, std::vector<uint8_t>(2 * pairs_per_row)),
        bytes(pairs_per_row * 2 * kSqBlockRows) {}
  void Set(size_t r, size_t d, uint8_t c) {
    rows[r][d] = c;
    bytes[d / 2 * 2 * kSqBlockRows + r * 2 + d % 2] = c;
  }
  std::vector<std::vector<uint8_t>> rows;
  std::vector<uint8_t, AlignedAllocator<uint8_t>> bytes;
};

// Lists pairs `listed` of the int16 weights `w` (one per dimension).
std::vector<U8PairWeight> ListPairs(const std::vector<int16_t>& w,
                                    const std::vector<uint32_t>& listed) {
  std::vector<U8PairWeight> pairs;
  for (uint32_t p : listed) {
    pairs.push_back(U8PairWeight{p, PackPairWeights(w[2 * p], w[2 * p + 1])});
  }
  return pairs;
}

// Every supported tier's dots equal an int64 loop over the listed pairs'
// unpacked weights, row by row.
void ExpectExactOnEveryTarget(const TestBlock& block, const std::vector<int16_t>& w,
                              const std::vector<uint32_t>& listed, const std::string& what) {
  std::vector<int64_t> want(kSqBlockRows, 0);
  for (size_t r = 0; r < kSqBlockRows; ++r) {
    for (uint32_t p : listed) {
      for (size_t d : {2 * size_t{p}, 2 * size_t{p} + 1}) {
        want[r] += static_cast<int64_t>(block.rows[r][d]) * static_cast<int64_t>(w[d]);
      }
    }
  }
  std::vector<U8PairWeight> pairs = ListPairs(w, listed);
  for (KernelTarget t : SupportedTargets()) {
    ScopedKernelTarget scoped(t);
    std::vector<int64_t> got(kSqBlockRows, -1);
    ActiveU8BlockKernel()(block.bytes.data(), pairs.data(), pairs.size(), got.data());
    EXPECT_EQ(got, want) << what << " target=" << KernelTargetName(t)
                         << " pairs=" << pairs.size();
  }
}

TEST(QuantKernelTest, BlockDotsEqualInt64ReferenceOnEveryTarget) {
  const size_t kPairs = 512;  // A dim-1024 row.
  Rng rng(0xCAB1E);
  TestBlock block(kPairs);
  for (size_t r = 0; r < kSqBlockRows; ++r) {
    for (size_t d = 0; d < 2 * kPairs; ++d) {
      block.Set(r, d, static_cast<uint8_t>(rng.Index(256)));
    }
  }
  for (size_t listed_pairs : {1u, 2u, 7u, 39u, 127u, 128u, 129u, 300u, 512u}) {
    std::vector<int16_t> w(2 * kPairs);
    for (int16_t& x : w) {
      x = static_cast<int16_t>(static_cast<int64_t>(rng.Index(65536)) - 32768);
    }
    // A random subset of the pairs, ascending, as BuildCertifiedQuery lists
    // them; a listed pair may still carry one zero weight.
    std::vector<uint32_t> all(kPairs);
    for (size_t p = 0; p < kPairs; ++p) {
      all[p] = static_cast<uint32_t>(p);
    }
    for (size_t i = 0; i < listed_pairs; ++i) {
      std::swap(all[i], all[i + rng.Index(kPairs - i)]);
    }
    std::vector<uint32_t> listed(all.begin(), all.begin() + listed_pairs);
    std::sort(listed.begin(), listed.end());
    w[2 * listed[0]] = 0;
    ExpectExactOnEveryTarget(block, w, listed, "random");
  }
  ExpectExactOnEveryTarget(block, std::vector<int16_t>(2 * kPairs, 1), {}, "no pairs");
}

// Every code 255 against all 512 pairs at +-W (W = 32767, the largest weight
// BuildCertifiedQuery stores): each madd result is at its largest, so an
// int32 lane that summed more of them than kernels.h's proof allows would
// wrap — from the 129th pair on, and 512 pairs fold four times. The
// alternating case cancels within each pair.
TEST(QuantKernelTest, BlockDotsDoNotWrapAtTheWeightExtremes) {
  constexpr int16_t kW = 32767;
  const size_t kPairs = 512;
  TestBlock block(kPairs);
  for (size_t r = 0; r < kSqBlockRows; ++r) {
    for (size_t d = 0; d < 2 * kPairs; ++d) {
      block.Set(r, d, 255);
    }
  }
  std::vector<uint32_t> every(kPairs);
  for (size_t p = 0; p < kPairs; ++p) {
    every[p] = static_cast<uint32_t>(p);
  }
  std::vector<int16_t> alternating(2 * kPairs);
  for (size_t d = 0; d < alternating.size(); ++d) {
    alternating[d] = d % 2 == 0 ? kW : -kW;
  }
  ExpectExactOnEveryTarget(block, std::vector<int16_t>(2 * kPairs, kW), every, "all +W");
  ExpectExactOnEveryTarget(block, std::vector<int16_t>(2 * kPairs, -kW), every, "all -W");
  ExpectExactOnEveryTarget(block, alternating, every, "alternating");
  std::vector<U8PairWeight> plus = ListPairs(std::vector<int16_t>(2 * kPairs, kW), every);
  std::vector<int64_t> got(kSqBlockRows);
  ActiveU8BlockKernel()(block.bytes.data(), plus.data(), plus.size(), got.data());
  EXPECT_EQ(got[0], 255 * int64_t{kW} * static_cast<int64_t>(2 * kPairs));
}

// --- Certified query ----------------------------------------------------------

// BuildCertifiedQuery before it went sparse: two dense passes over dim and a
// dense w16 array, the pair list read off w16.
CertifiedQuery DenseCertifiedQuery(const Int8Params& sq, const std::vector<double>& delta,
                                   const float* q, size_t dim, double qnorm) {
  const float* scale = sq.scale.data();
  double qv = 0.0;
  double qv_abs = 0.0;
  double quant = 0.0;
  double wd_abs = 0.0;
  double wd_max = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    double wd = static_cast<double>(q[d]) * static_cast<double>(scale[d]);
    double qvmin = static_cast<double>(q[d]) * static_cast<double>(sq.vmin[d]);
    qv += qvmin;
    qv_abs += std::fabs(qvmin);
    quant += std::fabs(static_cast<double>(q[d])) * delta[d];
    wd_abs += std::fabs(wd);
    wd_max = std::max(wd_max, std::fabs(wd));
  }
  constexpr double kW = 32767.0;
  constexpr double kRound = 0x1.8p52;
  double alpha = wd_max / kW;
  double inv_alpha = wd_max > 0.0 ? kW / wd_max : 0.0;
  std::vector<int16_t> w16(SqCodeStride(dim), 0);
  double err = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    double wd = static_cast<double>(q[d]) * static_cast<double>(scale[d]);
    double r = (wd * inv_alpha + kRound) - kRound;
    r = r < kW ? r : kW;
    r = r > -kW ? r : -kW;
    w16[d] = static_cast<int16_t>(r);
    err += std::fabs(wd - alpha * static_cast<double>(w16[d]));
  }
  CertifiedQuery cq;
  for (size_t p = 0; p < w16.size() / 2; ++p) {
    if (w16[2 * p] != 0 || w16[2 * p + 1] != 0) {
      cq.pairs.push_back(
          U8PairWeight{static_cast<uint32_t>(p), PackPairWeights(w16[2 * p], w16[2 * p + 1])});
    }
  }
  double s_err = 255.0 * err;
  double s_max = 255.0 * (wd_abs + err);
  double gamma_f64 = (static_cast<double>(dim) + 64.0) * 0x1p-52;
  constexpr double kMargin = 1.0 + 0x1p-22;
  cq.alpha = alpha;
  cq.qnorm = qnorm;
  cq.qv = qv;
  cq.slack = kMargin * (2.0 * quant + 2.0 * s_err + gamma_f64 * 2.0 * (qnorm + qv_abs + s_max)) +
             4.0 * static_cast<double>(std::numeric_limits<float>::denorm_min());
  cq.norm_slack = kMargin * gamma_f64 * 2.0;
  return cq;
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

void ExpectSameQuery(const CertifiedQuery& got, const CertifiedQuery& want,
                     const std::string& what) {
  ASSERT_EQ(got.pairs.size(), want.pairs.size()) << what;
  for (size_t i = 0; i < got.pairs.size(); ++i) {
    EXPECT_EQ(got.pairs[i].pair, want.pairs[i].pair) << what << " pair " << i;
    EXPECT_EQ(got.pairs[i].w, want.pairs[i].w) << what << " pair " << i;
  }
  EXPECT_EQ(Bits(got.alpha), Bits(want.alpha)) << what;
  EXPECT_EQ(Bits(got.qnorm), Bits(want.qnorm)) << what;
  EXPECT_EQ(Bits(got.qv), Bits(want.qv)) << what;
  EXPECT_EQ(Bits(got.slack), Bits(want.slack)) << what;
  EXPECT_EQ(Bits(got.norm_slack), Bits(want.norm_slack)) << what;
}

// Visiting only the nonzero coordinates must give every field of the dense
// recipe bit for bit: on k-sparse queries (one coordinate, both or one of a
// pair, a few dozen as the catalog embedder makes), on coordinates that
// cancel to exactly +0 or are -0, on the all-zero query, and on dense ones;
// with negative and positive vmin, constant dimensions (scale 0) and
// dimensions without quantization error (delta 0).
TEST(CertifiedQueryTest, SparseBuildMatchesTheDenseRecipeInEveryField) {
  Rng rng(0x5BA25E);
  for (size_t dim : {size_t{37}, size_t{1024}}) {
    Int8Params sq;
    std::vector<double> delta(dim);
    for (size_t d = 0; d < dim; ++d) {
      sq.vmin.push_back(static_cast<float>(rng.Uniform(-1.5, 0.5)));
      sq.scale.push_back(d % 11 == 3 ? 0.0f : static_cast<float>(rng.Uniform(1e-4, 1e-2)));
      delta[d] = d % 7 == 2 ? 0.0 : rng.Uniform(0.0, 0.5) * sq.scale[d];
    }
    std::vector<std::pair<std::string, Embedding>> queries;
    queries.emplace_back("all zero", Embedding(dim, 0.0f));
    for (size_t nz : {size_t{1}, size_t{2}, size_t{3}, size_t{17}, size_t{78}, dim}) {
      for (int rep = 0; rep < 4; ++rep) {
        Embedding q(dim, 0.0f);
        for (size_t i = 0; i < nz; ++i) {
          q[rng.Index(dim)] = static_cast<float>(rng.Uniform(-1.0, 1.0));
        }
        float a = static_cast<float>(rng.Uniform(0.1, 0.9));
        q[rng.Index(dim)] = a - a;   // Cancels to +0.
        q[rng.Index(dim)] = -0.0f;
        if (rep == 1) {  // A pair with both coordinates set.
          size_t p = rng.Index(dim / 2);
          q[2 * p] = 0.25f;
          q[2 * p + 1] = -0.75f;
        }
        queries.emplace_back(std::to_string(nz) + "-sparse rep " + std::to_string(rep), q);
      }
    }
    for (const auto& [name, q] : queries) {
      std::string what = "dim=" + std::to_string(dim) + " " + name;
      double qnorm = SquaredNormBlocked(q.data(), dim);
      CertifiedQuery got;
      got.pairs.push_back(U8PairWeight{7, 7});  // A reused query starts over.
      BuildCertifiedQuery(sq, delta, q.data(), dim, qnorm, &got);
      ExpectSameQuery(got, DenseCertifiedQuery(sq, delta, q.data(), dim, qnorm), what);
    }
  }
}

// --- SQ encoding ---------------------------------------------------------------

// Codes and the reconstruction-error bound must be what the per-element
// recipe round((x - vmin) / scale) -> clamp [0, 255] gives, with
// std::nearbyint's ties-to-even — whatever loop shape or worker split
// training and encoding use. Dimension
// 0 spans [0, 255] exactly (scale 1), so its x.5 values are exact ties;
// dimension 1 is constant (scale 0); rows past the training range clamp.
TEST(QuantEncodeTest, CodesMatchTheNearbyintRecipeForAnyWorkerCount) {
  const size_t dim = 37;
  Rng rng(0xC0DE5);
  std::vector<Embedding> rows;
  for (size_t i = 0; i < 300; ++i) {
    Embedding v(dim);
    for (size_t d = 0; d < dim; ++d) {
      v[d] = static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
    v[0] = i == 0 ? 0.0f : i == 1 ? 255.0f : static_cast<float>(i % 256) + 0.5f * (i % 2);
    v[1] = 3.25f;
    rows.push_back(std::move(v));
  }
  size_t train_rows = 200;  // Rows 200.. may fall outside [vmin, vmax] and clamp.
  for (size_t i = train_rows; i < rows.size(); ++i) {
    rows[i][2] = 5.0f * rows[i][2];
    rows[i][0] = static_cast<float>(i) - 20.5f;  // 179.5 .. 278.5: ties, then clamps.
  }
  RowPool pool(dim);
  for (size_t i = 0; i < rows.size(); ++i) {
    pool.Append(static_cast<ChunkId>(i), rows[i].data());
  }
  auto row = [&](size_t i) { return rows[i].data(); };
  Int8Params sq = TrainInt8(row, train_rows, dim, nullptr);
  ASSERT_EQ(sq.vmin[0], 0.0f);
  ASSERT_EQ(sq.scale[0], 1.0f);
  ASSERT_EQ(sq.scale[1], 0.0f);
  std::vector<double> want_delta(dim, 0.0);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool workers(threads);
    Int8Params split = TrainInt8(row, train_rows, dim, &workers);
    EXPECT_EQ(split.vmin, sq.vmin) << "threads=" << threads;
    EXPECT_EQ(split.scale, sq.scale) << "threads=" << threads;
    QuantizedCodes codes;
    // Two calls, as a sealing segment makes: codes append.
    EncodeRows(sq, pool, 0, 150, &codes, &workers);
    EncodeRows(sq, pool, 150, pool.size(), &codes, &workers);
    ASSERT_EQ(codes.rows, pool.size());
    std::vector<double> delta(dim, 0.0);
    for (size_t i = 0; i < pool.size(); ++i) {
      for (size_t d = 0; d < dim; ++d) {
        uint8_t want = 0;
        if (sq.scale[d] > 0) {
          float t = (rows[i][d] - sq.vmin[d]) / sq.scale[d];
          want = static_cast<uint8_t>(std::min(255.0f, std::max(0.0f, std::nearbyint(t))));
        }
        ASSERT_EQ(codes.code(i, d), want) << "row " << i << " dim " << d;
        double rec = static_cast<double>(sq.scale[d]) * want;
        delta[d] = std::max(delta[d], std::fabs(static_cast<double>(rows[i][d]) -
                                                (static_cast<double>(sq.vmin[d]) + rec)));
      }
    }
    EXPECT_EQ(codes.sq_delta, delta) << "threads=" << threads;
    EXPECT_EQ(codes.code(129, 0), 130) << "129.5 is a tie: rounds to even";
    // 300 rows fill 10 blocks of 32; the 20 padding rows and the padding
    // dimensions hold code 0.
    ASSERT_EQ(codes.sq.size(), 10 * kSqBlockRows * codes.sq_stride);
    for (size_t i = 0; i < 10 * kSqBlockRows; ++i) {
      for (size_t d = i < pool.size() ? dim : 0; d < codes.sq_stride; ++d) {
        ASSERT_EQ(codes.code(i, d), 0) << "padding row " << i << " dim " << d;
      }
    }
    EXPECT_GT(delta[2], 0.5 * sq.scale[2]) << "clamped rows must widen the measured bound";
  }
}

// --- bytes_per_row -----------------------------------------------------------

// Every read streams the SQ mirror once it is built, so kInt8 reports the
// mirror's code stride from then on and 0 before; kFp32 is the padded fp32
// row either way.
TEST(QuantMemoryTest, Int8BytesPerRowIsTheMirrorStrideOnceBuilt) {
  for (size_t dim : {size_t{64}, size_t{37}}) {
    ClusteredCorpus corpus = MakeClusteredCorpus(dim, 8, 40, 4, 2, 0xB17E5);
    FlatL2Index flat(dim);
    IvfL2Index ivf(dim, /*nlist=*/8, /*nprobe=*/2, /*seed=*/17);
    for (size_t i = 0; i < corpus.points.size(); ++i) {
      flat.Add(static_cast<ChunkId>(i + 1), corpus.points[i]);
      ivf.Add(static_cast<ChunkId>(i + 1), corpus.points[i]);
    }
    ivf.Train();
    const size_t fp32 = 16 * sizeof(float) * ((dim + 15) / 16);
    const size_t int8 = 64;  // Both dims pad to one 64-byte code row.
    ASSERT_EQ(SqCodeStride(dim), int8);
    EXPECT_EQ(flat.bytes_per_row(RetrievalPrecision::kFp32), fp32) << "dim=" << dim;
    EXPECT_EQ(ivf.bytes_per_row(RetrievalPrecision::kFp32), fp32) << "dim=" << dim;
    EXPECT_EQ(flat.bytes_per_row(RetrievalPrecision::kInt8), 0u) << "no mirror yet, dim=" << dim;
    EXPECT_EQ(ivf.bytes_per_row(RetrievalPrecision::kInt8), 0u) << "no mirror yet, dim=" << dim;
    ASSERT_TRUE(flat.BuildQuantizedMirrors(nullptr));
    ASSERT_TRUE(ivf.BuildQuantizedMirrors(nullptr));
    EXPECT_EQ(flat.bytes_per_row(RetrievalPrecision::kInt8), int8) << "dim=" << dim;
    EXPECT_EQ(ivf.bytes_per_row(RetrievalPrecision::kInt8), int8) << "dim=" << dim;
    EXPECT_EQ(flat.bytes_per_row(RetrievalPrecision::kFp32), fp32) << "dim=" << dim;
    EXPECT_EQ(ivf.bytes_per_row(RetrievalPrecision::kFp32), fp32) << "dim=" << dim;
  }
}

}  // namespace
}  // namespace metis
