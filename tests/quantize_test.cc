// Tests for the int8 SQ mirror (src/vectordb/quantize.h) that every index's
// certified scan reads:
//
//   - u8 kernel tier parity: DotU8F32 is bit-identical across scalar / AVX2
//     (16 float chains, fixed reduction tree).
//   - Encoding: codes and the measured reconstruction-error bound follow the
//     per-element nearbyint recipe for any worker split and any grouping of
//     rows into EncodeRows calls.
//   - bytes_per_row: kInt8 reports the mirror's code stride once the flat or
//     IVF index has built it, and 0 before.
//
// certified_scan_test covers what the scan does with the mirror.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/vectordb/clustered_corpus.h"
#include "src/vectordb/kernels.h"
#include "src/vectordb/quantize.h"
#include "src/vectordb/vectordb.h"

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

// --- u8 kernel tier parity ---------------------------------------------------

TEST(QuantKernelTest, U8DotBitIdenticalAcrossTargets) {
  Rng rng(0xCAB1E);
  for (size_t n : {1u, 7u, 15u, 16u, 17u, 64u, 100u, 256u, 1000u}) {
    std::vector<uint8_t> codes(n);
    std::vector<float> w(n);
    for (size_t i = 0; i < n; ++i) {
      codes[i] = static_cast<uint8_t>(rng.Index(256));
      w[i] = static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
    const float want = DotU8F32Target(KernelTarget::kScalar, codes.data(), w.data(), n);
    for (KernelTarget t : SupportedTargets()) {
      const float got = DotU8F32Target(t, codes.data(), w.data(), n);
      EXPECT_EQ(got, want) << "target=" << KernelTargetName(t) << " n=" << n;
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
        ASSERT_EQ(codes.sq[i * codes.sq_stride + d], want) << "row " << i << " dim " << d;
        double rec = static_cast<double>(sq.scale[d]) * want;
        delta[d] = std::max(delta[d], std::fabs(static_cast<double>(rows[i][d]) -
                                                (static_cast<double>(sq.vmin[d]) + rec)));
      }
    }
    EXPECT_EQ(codes.sq_delta, delta) << "threads=" << threads;
    EXPECT_EQ(codes.sq[129 * codes.sq_stride], 130) << "129.5 is a tie: rounds to even";
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
    FlatL2Index flat(dim, /*num_shards=*/2);
    IvfL2Index ivf(dim, /*nlist=*/8, /*nprobe=*/2, /*seed=*/17, /*num_shards=*/2);
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
