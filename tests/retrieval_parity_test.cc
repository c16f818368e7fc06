// Parity property tests for the high-throughput retrieval substrate.
//
// The rebuilt vectordb (SoA rows + norm-trick distances + bounded-heap top-k
// + batched/threaded sweeps) must return *exactly* the seed implementation's
// rankings: same ids, same order, including insertion-order tie-breaks on
// duplicate-distance inputs. The reference oracle is the frozen seed copy in
// src/vectordb/seed_reference.h (scalar double-precision loop, materialize
// every candidate, stable_sort, truncate).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/retrieval_batcher.h"
#include "src/sim/simulator.h"
#include "src/vectordb/kernels.h"
#include "src/vectordb/seed_reference.h"
#include "src/vectordb/vectordb.h"

namespace metis {
namespace {

// Forces one dispatch tier for a scope; restores the startup default on exit.
struct ScopedKernelTarget {
  explicit ScopedKernelTarget(KernelTarget t) { METIS_CHECK(SetKernelTarget(t)); }
  ~ScopedKernelTarget() { ResetKernelTarget(); }
};

std::vector<KernelTarget> SupportedTargets() {
  std::vector<KernelTarget> targets;
  for (KernelTarget t : {KernelTarget::kScalar, KernelTarget::kAvx2}) {
    if (KernelTargetSupported(t)) {
      targets.push_back(t);
    }
  }
  return targets;
}

void ExpectSameRanking(const std::vector<SearchHit>& got, const std::vector<SearchHit>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << context << " rank " << i;
  }
}

// --- Flat parity ------------------------------------------------------------

TEST(RetrievalParityTest, FlatMatchesSeedOnRandomInputs) {
  for (size_t dim : {7u, 64u, 256u}) {
    for (size_t n : {1u, 13u, 400u}) {
      Rng rng(0x5EED ^ (dim * 1315423911u) ^ n);
      FlatL2Index index(dim);
      SeedFlatIndex seed(dim);
      for (size_t i = 0; i < n; ++i) {
        Embedding v = RandomUnitVector(rng, dim);
        // Non-contiguous ids to catch id/row mixups.
        ChunkId id = static_cast<ChunkId>(7 * i + 3);
        index.Add(id, v);
        seed.Add(id, v);
      }
      for (size_t k : {size_t{1}, size_t{7}, n, n + 5}) {
        for (int q = 0; q < 8; ++q) {
          Embedding query = RandomUnitVector(rng, dim);
          ExpectSameRanking(index.Search(query, k, RetrievalQuality{}), seed.Search(query, k),
                            "dim=" + std::to_string(dim) + " n=" + std::to_string(n) +
                                " k=" + std::to_string(k));
        }
      }
    }
  }
}

TEST(RetrievalParityTest, FlatMatchesSeedOnAdversarialDuplicateDistances) {
  // 150 rows drawn from only 6 distinct vectors: almost everything is an
  // exact distance tie, so any deviation from insertion-order tie-breaking
  // shows up immediately. Queries include the duplicated vectors themselves
  // (distance exactly 0 for whole groups of rows).
  const size_t kDim = 16;
  Rng rng(0xD0D0);
  std::vector<Embedding> basis;
  for (int b = 0; b < 6; ++b) {
    basis.push_back(RandomUnitVector(rng, kDim));
  }
  FlatL2Index index(kDim);
  SeedFlatIndex seed(kDim);
  for (int i = 0; i < 150; ++i) {
    const Embedding& v = basis[static_cast<size_t>(rng.UniformInt(0, 5))];
    index.Add(i, v);
    seed.Add(i, v);
  }
  std::vector<Embedding> queries = basis;
  queries.push_back(RandomUnitVector(rng, kDim));
  for (size_t k : {size_t{3}, size_t{17}, size_t{150}, size_t{200}}) {
    for (size_t q = 0; q < queries.size(); ++q) {
      ExpectSameRanking(index.Search(queries[q], k, RetrievalQuality{}), seed.Search(queries[q], k),
                        "dup k=" + std::to_string(k) + " q=" + std::to_string(q));
    }
  }
}

TEST(RetrievalParityTest, FlatSearchEdgeCases) {
  FlatL2Index index(4);
  EXPECT_TRUE(index.Search(Embedding(4, 0.0f), 3, RetrievalQuality{}).empty());  // Empty index.
  index.Add(9, Embedding(4, 0.5f));
  EXPECT_TRUE(index.Search(Embedding(4, 0.0f), 0, RetrievalQuality{}).empty());  // k == 0.
  auto hits = index.Search(Embedding(4, 0.5f), 1, RetrievalQuality{});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 9);
  // Same bits in, same accumulation structure -> exact zero self-distance.
  EXPECT_EQ(hits[0].distance, 0.0f);
}

// --- Kernel dispatch parity --------------------------------------------------
//
// The dispatched dot kernel must return the bit-identical double on every
// tier (scalar / AVX2): same eight accumulation chains, same
// rounding per element (no FMA), same reduction tree. These tests force each
// CPU-supported tier and compare against the scalar tier exactly.

TEST(KernelDispatchTest, ScalarIsAlwaysSupported) {
  EXPECT_TRUE(KernelTargetSupported(KernelTarget::kScalar));
  // The active tier is one of the supported ones.
  EXPECT_TRUE(KernelTargetSupported(ActiveKernelTarget()));
}

TEST(KernelDispatchTest, ForcingAnUnsupportedTargetIsRejected) {
  if (!KernelTargetSupported(KernelTarget::kAvx2)) {
    KernelTarget before = ActiveKernelTarget();
    EXPECT_FALSE(SetKernelTarget(KernelTarget::kAvx2));
    EXPECT_EQ(ActiveKernelTarget(), before);
  }
}

TEST(KernelDispatchTest, ForcedTargetBecomesActive) {
  for (KernelTarget t : SupportedTargets()) {
    ScopedKernelTarget scoped(t);
    EXPECT_EQ(ActiveKernelTarget(), t);
    EXPECT_STREQ(KernelTargetName(ActiveKernelTarget()), KernelTargetName(t));
  }
  // Destructor restored the default.
  EXPECT_TRUE(KernelTargetSupported(ActiveKernelTarget()));
}

TEST(KernelDispatchTest, AllTargetsReturnBitIdenticalDots) {
  Rng rng(0x51D5);
  // Dims cover every tail length mod 8, plus production-sized vectors.
  for (size_t n : {1u, 2u, 3u, 5u, 7u, 8u, 9u, 12u, 15u, 16u, 17u, 31u, 64u, 100u, 256u, 257u}) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<float> a(n), b(n);
      for (size_t i = 0; i < n; ++i) {
        // Mixed magnitudes and signs make the rounding sequence matter: any
        // reassociation or contraction difference between tiers shows up.
        double scale = (i % 3 == 0) ? 1e3 : (i % 3 == 1) ? 1.0 : 1e-3;
        a[i] = static_cast<float>(rng.Normal(0, 1) * scale);
        b[i] = static_cast<float>(rng.Normal(0, 1) * scale);
      }
      double want = DotBlockedTarget(KernelTarget::kScalar, a.data(), b.data(), n);
      for (KernelTarget t : SupportedTargets()) {
        double got = DotBlockedTarget(t, a.data(), b.data(), n);
        EXPECT_EQ(got, want) << "target=" << KernelTargetName(t) << " n=" << n
                             << " rep=" << rep;
        // Self-dot parity too (the norm path).
        EXPECT_EQ(DotBlockedTarget(t, a.data(), a.data(), n),
                  DotBlockedTarget(KernelTarget::kScalar, a.data(), a.data(), n))
            << "target=" << KernelTargetName(t) << " n=" << n;
      }
    }
  }
}

TEST(KernelDispatchTest, DispatchedEntryPointsFollowTheForcedTarget) {
  Rng rng(0xD15);
  const size_t kN = 77;
  std::vector<float> a(kN), b(kN);
  for (size_t i = 0; i < kN; ++i) {
    a[i] = static_cast<float>(rng.Normal(0, 1));
    b[i] = static_cast<float>(rng.Normal(0, 1));
  }
  double want_dot = DotBlockedTarget(KernelTarget::kScalar, a.data(), b.data(), kN);
  double want_norm = DotBlockedTarget(KernelTarget::kScalar, a.data(), a.data(), kN);
  for (KernelTarget t : SupportedTargets()) {
    ScopedKernelTarget scoped(t);
    EXPECT_EQ(DotBlocked(a.data(), b.data(), kN), want_dot) << KernelTargetName(t);
    EXPECT_EQ(SquaredNormBlocked(a.data(), kN), want_norm) << KernelTargetName(t);
    EXPECT_EQ(ActiveDotKernel()(a.data(), b.data(), kN), want_dot) << KernelTargetName(t);
  }
}

TEST(RetrievalParityTest, FlatSearchIsBitIdenticalAcrossDispatchTargets) {
  // Build once under the default tier (norms are tier-independent), then
  // search the same queries under every supported tier: ids, order, AND float
  // distances must match bit-for-bit — and the ranking must match the seed.
  const size_t kDim = 96;
  Rng rng(0x7A26E7);
  FlatL2Index index(kDim);
  SeedFlatIndex seed(kDim);
  std::vector<Embedding> stored;
  for (int i = 0; i < 240; ++i) {
    // A quarter duplicates: ties must break identically on every tier.
    Embedding v = (i >= 80 && i % 4 == 0) ? stored[static_cast<size_t>(i) / 3]
                                          : RandomUnitVector(rng, kDim);
    stored.push_back(v);
    index.Add(i, v);
    seed.Add(i, v);
  }
  std::vector<Embedding> queries;
  for (int q = 0; q < 12; ++q) {
    queries.push_back(q % 3 == 0 ? stored[static_cast<size_t>(q) * 5]
                                 : RandomUnitVector(rng, kDim));
  }
  const size_t kK = 14;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<SearchHit> scalar_hits;
    {
      ScopedKernelTarget scoped(KernelTarget::kScalar);
      scalar_hits = index.Search(queries[qi], kK, RetrievalQuality{});
    }
    ExpectSameRanking(scalar_hits, seed.Search(queries[qi], kK),
                      "scalar vs seed q=" + std::to_string(qi));
    for (KernelTarget t : SupportedTargets()) {
      ScopedKernelTarget scoped(t);
      std::vector<SearchHit> hits = index.Search(queries[qi], kK, RetrievalQuality{});
      ASSERT_EQ(hits.size(), scalar_hits.size()) << KernelTargetName(t) << " q=" << qi;
      for (size_t r = 0; r < hits.size(); ++r) {
        EXPECT_EQ(hits[r].id, scalar_hits[r].id)
            << KernelTargetName(t) << " q=" << qi << " rank=" << r;
        EXPECT_EQ(hits[r].distance, scalar_hits[r].distance)
            << KernelTargetName(t) << " q=" << qi << " rank=" << r;
      }
    }
  }
}

TEST(RetrievalParityTest, IvfSearchIsBitIdenticalAcrossDispatchTargets) {
  // IVF adds centroid ranking and per-list scans on top of the kernels; the
  // whole pipeline (train under default tier, search under each tier) must
  // agree bit-for-bit, fixed and adaptive probing alike.
  const size_t kDim = 40;
  Rng rng(0x1F2E3D);
  IvfL2Index ivf(kDim, 12, 4, 2024);
  for (int i = 0; i < 300; ++i) {
    ivf.Add(i, RandomUnitVector(rng, kDim));
  }
  ivf.Train();
  std::vector<Embedding> queries;
  for (int q = 0; q < 10; ++q) {
    queries.push_back(RandomUnitVector(rng, kDim));
  }
  RetrievalQuality adaptive;
  adaptive.mode = RetrievalQuality::ProbeMode::kAdaptive;
  adaptive.nprobe = 8;
  for (const RetrievalQuality& quality : {RetrievalQuality{}, adaptive}) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      std::vector<SearchHit> want;
      {
        ScopedKernelTarget scoped(KernelTarget::kScalar);
        want = ivf.Search(queries[qi], 9, quality);
      }
      for (KernelTarget t : SupportedTargets()) {
        ScopedKernelTarget scoped(t);
        std::vector<SearchHit> got = ivf.Search(queries[qi], 9, quality);
        ASSERT_EQ(got.size(), want.size()) << KernelTargetName(t) << " q=" << qi;
        for (size_t r = 0; r < got.size(); ++r) {
          EXPECT_EQ(got[r].id, want[r].id)
              << KernelTargetName(t) << " q=" << qi << " rank=" << r;
          EXPECT_EQ(got[r].distance, want[r].distance)
              << KernelTargetName(t) << " q=" << qi << " rank=" << r;
        }
      }
    }
  }
}

// --- Batched parity across thread counts ------------------------------------

TEST(RetrievalParityTest, SearchBatchMatchesSeedForEveryThreadCount) {
  const size_t kDim = 48;
  Rng rng(0xBA7C4);
  FlatL2Index index(kDim);
  SeedFlatIndex seed(kDim);
  std::vector<Embedding> stored;
  for (int i = 0; i < 300; ++i) {
    // A third of the rows duplicate an earlier row: ties must survive
    // batching and threading too.
    Embedding v = (i >= 100 && i % 3 == 0) ? stored[static_cast<size_t>(i) / 2]
                                           : RandomUnitVector(rng, kDim);
    stored.push_back(v);
    index.Add(i, v);
    seed.Add(i, v);
  }
  std::vector<Embedding> queries;
  for (int q = 0; q < 33; ++q) {
    queries.push_back(q % 4 == 0 ? stored[static_cast<size_t>(q) * 7]
                                 : RandomUnitVector(rng, kDim));
  }

  const size_t kK = 12;
  std::vector<std::vector<SearchHit>> want;
  want.reserve(queries.size());
  for (const Embedding& q : queries) {
    want.push_back(seed.Search(q, kK));
  }

  // No pool (inline), then pools of 1, 2, 4, 8 workers.
  std::vector<RetrievalQuality> qualities(queries.size());
  for (size_t threads : {0u, 1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    auto got = index.SearchBatch(queries, kK, threads == 0 ? nullptr : &pool, qualities);
    ASSERT_EQ(got.size(), queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ExpectSameRanking(got[qi], want[qi],
                        "threads=" + std::to_string(threads) + " q=" + std::to_string(qi));
    }
  }
}

// --- IVF --------------------------------------------------------------------

TEST(RetrievalParityTest, IvfExhaustiveProbeMatchesFlatOnTieFreeInputs) {
  // With nprobe == nlist the IVF index scans every row; on tie-free inputs
  // (random distinct vectors) its ranking must equal the flat index's.
  const size_t kDim = 24;
  Rng rng(0x1F1F);
  FlatL2Index flat(kDim);
  IvfL2Index ivf(kDim, 8, 8, 77);
  for (int i = 0; i < 200; ++i) {
    Embedding v = RandomUnitVector(rng, kDim);
    flat.Add(i, v);
    ivf.Add(i, v);
  }
  ivf.Train();
  for (int q = 0; q < 10; ++q) {
    Embedding query = RandomUnitVector(rng, kDim);
    ExpectSameRanking(ivf.Search(query, 15, RetrievalQuality{}),
                      flat.Search(query, 15, RetrievalQuality{}), "q=" + std::to_string(q));
  }
}

TEST(RetrievalParityTest, IvfSearchBatchMatchesSequentialSearch) {
  const size_t kDim = 24;
  Rng rng(0xABCD);
  IvfL2Index ivf(kDim, 6, 2, 7);
  for (int i = 0; i < 180; ++i) {
    ivf.Add(i, RandomUnitVector(rng, kDim));
  }
  ivf.Train();
  std::vector<Embedding> queries;
  for (int q = 0; q < 17; ++q) {
    queries.push_back(RandomUnitVector(rng, kDim));
  }
  std::vector<RetrievalQuality> qualities(queries.size());
  for (size_t threads : {0u, 2u, 8u}) {
    ThreadPool pool(threads);
    auto got = ivf.SearchBatch(queries, 9, threads == 0 ? nullptr : &pool, qualities);
    ASSERT_EQ(got.size(), queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ExpectSameRanking(got[qi], ivf.Search(queries[qi], 9, qualities[qi]),
                        "q=" + std::to_string(qi));
    }
  }
}

TEST(RetrievalParityTest, IvfTrainIsDeterministicAcrossThreadCounts) {
  const size_t kDim = 32;
  auto build = [&](ThreadPool* pool) {
    Rng rng(0x7A17);
    IvfL2Index ivf(kDim, 10, 3, 123);
    for (int i = 0; i < 250; ++i) {
      ivf.Add(i, RandomUnitVector(rng, kDim));
    }
    ivf.Train(pool);
    return ivf;
  };
  IvfL2Index serial = build(nullptr);
  ThreadPool pool8(8);
  IvfL2Index threaded = build(&pool8);

  Rng qrng(0x9999);
  for (int q = 0; q < 12; ++q) {
    Embedding query = RandomUnitVector(qrng, kDim);
    auto a = serial.Search(query, 11, RetrievalQuality{});
    auto b = threaded.Search(query, 11, RetrievalQuality{});
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "q=" << q << " rank=" << i;
      EXPECT_EQ(a[i].distance, b[i].distance) << "q=" << q << " rank=" << i;
    }
  }
}

// --- Sharded storage parity ---------------------------------------------------
//
// Hash-partitioned IndexShards must be invisible in results: for ANY shard
// count and ANY thread count, ids, order, AND float distances are bit-equal
// to the single-shard index (which is itself seed-parity-tested above). The
// corpora include heavy duplicate groups so cross-shard tie-breaks are
// exercised, and shard count 7 leaves shards unevenly filled.

void ExpectBitEqualHits(const std::vector<SearchHit>& got, const std::vector<SearchHit>& want,
                        const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << context << " rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << context << " rank " << i;
  }
}

TEST(ShardedParityTest, FlatShardedBitEqualForAnyShardAndThreadCount) {
  const size_t kDim = 56;
  const size_t kK = 13;
  Rng rng(0x5AA5D);
  std::vector<std::pair<ChunkId, Embedding>> corpus;
  std::vector<Embedding> stored;
  for (int i = 0; i < 320; ++i) {
    // A third duplicates: exact distance ties must break identically no
    // matter which shard each duplicate landed in.
    Embedding v = (i >= 90 && i % 3 == 0) ? stored[static_cast<size_t>(i) / 2]
                                          : RandomUnitVector(rng, kDim);
    stored.push_back(v);
    // Non-contiguous ids: the shard hash and the global order must not be
    // conflated with the id value.
    corpus.emplace_back(static_cast<ChunkId>(5 * i + 2), v);
  }
  std::vector<Embedding> queries;
  for (int q = 0; q < 21; ++q) {
    queries.push_back(q % 4 == 0 ? stored[static_cast<size_t>(q) * 9]
                                 : RandomUnitVector(rng, kDim));
  }

  FlatL2Index reference(kDim, 1);
  for (const auto& [id, v] : corpus) {
    reference.Add(id, v);
  }
  std::vector<std::vector<SearchHit>> want;
  for (const Embedding& q : queries) {
    want.push_back(reference.Search(q, kK, RetrievalQuality{}));
  }

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    FlatL2Index index(kDim, shards);
    for (const auto& [id, v] : corpus) {
      index.Add(id, v);
    }
    ASSERT_EQ(index.size(), corpus.size());
    // Single-query path (serial across shards, one heap).
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ExpectBitEqualHits(index.Search(queries[qi], kK, RetrievalQuality{}), want[qi],
                         "search shards=" + std::to_string(shards) + " q=" + std::to_string(qi));
    }
    // Batched path: per-(shard x query) heaps merged, across thread counts.
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ThreadPool pool(threads);
      std::vector<RetrievalQuality> qualities(queries.size());
      auto got = index.SearchBatch(queries, kK, &pool, qualities);
      ASSERT_EQ(got.size(), queries.size());
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        ExpectBitEqualHits(got[qi], want[qi],
                           "batch shards=" + std::to_string(shards) +
                               " threads=" + std::to_string(threads) +
                               " q=" + std::to_string(qi));
      }
    }
  }
}

TEST(ShardedParityTest, IvfShardedBitEqualForAnyShardAndThreadCount) {
  const size_t kDim = 36;
  const size_t kK = 11;
  Rng rng(0x1C0DE);
  std::vector<std::pair<ChunkId, Embedding>> corpus;
  std::vector<Embedding> stored;
  for (int i = 0; i < 350; ++i) {
    Embedding v = (i >= 120 && i % 4 == 0) ? stored[static_cast<size_t>(i) / 3]
                                           : RandomUnitVector(rng, kDim);
    stored.push_back(v);
    corpus.emplace_back(static_cast<ChunkId>(3 * i + 1), v);
  }
  std::vector<Embedding> queries;
  for (int q = 0; q < 15; ++q) {
    queries.push_back(q % 5 == 0 ? stored[static_cast<size_t>(q) * 11]
                                 : RandomUnitVector(rng, kDim));
  }
  RetrievalQuality adaptive;
  adaptive.mode = RetrievalQuality::ProbeMode::kAdaptive;
  adaptive.nprobe = 6;

  auto build = [&](size_t shards) {
    IvfL2Index ivf(kDim, 9, 3, 4242, shards);
    for (const auto& [id, v] : corpus) {
      ivf.Add(id, v);
    }
    ivf.Train();
    // Post-train adds append through the shard router too.
    for (int i = 0; i < 30; ++i) {
      ivf.Add(static_cast<ChunkId>(2000 + i), stored[static_cast<size_t>(i) * 7]);
    }
    return ivf;
  };

  IvfL2Index reference = build(1);
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    IvfL2Index ivf = build(shards);
    ASSERT_EQ(ivf.size(), reference.size());
    for (const RetrievalQuality& quality : {RetrievalQuality{}, adaptive}) {
      std::string mode = quality.mode == RetrievalQuality::ProbeMode::kAdaptive ? "adaptive"
                                                                                : "default";
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        ExpectBitEqualHits(ivf.Search(queries[qi], kK, quality),
                           reference.Search(queries[qi], kK, quality),
                           "ivf search shards=" + std::to_string(shards) + " mode=" + mode +
                               " q=" + std::to_string(qi));
      }
      for (size_t threads : {size_t{1}, size_t{4}}) {
        ThreadPool pool(threads);
        std::vector<RetrievalQuality> qualities(queries.size(), quality);
        auto got = ivf.SearchBatch(queries, kK, &pool, qualities);
        auto want = reference.SearchBatch(queries, kK, nullptr, qualities);
        ASSERT_EQ(got.size(), want.size());
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          ExpectBitEqualHits(got[qi], want[qi],
                             "ivf batch shards=" + std::to_string(shards) + " mode=" + mode +
                                 " threads=" + std::to_string(threads) +
                                 " q=" + std::to_string(qi));
        }
      }
    }
  }
}

TEST(ShardedParityTest, ShardedProbeAccountingMatchesSingleShard) {
  // The probe planner is shard-blind: mean_probes must not depend on the
  // shard count, in either fixed or adaptive mode.
  const size_t kDim = 20;
  Rng rng(0xFACE5);
  std::vector<Embedding> corpus;
  for (int i = 0; i < 240; ++i) {
    corpus.push_back(RandomUnitVector(rng, kDim));
  }
  std::vector<Embedding> queries;
  for (int q = 0; q < 12; ++q) {
    queries.push_back(RandomUnitVector(rng, kDim));
  }
  RetrievalQuality adaptive;
  adaptive.mode = RetrievalQuality::ProbeMode::kAdaptive;
  adaptive.nprobe = 5;
  std::vector<double> fixed_means;
  std::vector<double> adaptive_means;
  for (size_t shards : {size_t{1}, size_t{4}}) {
    IvfL2Index ivf(kDim, 8, 2, 99, shards);
    for (size_t i = 0; i < corpus.size(); ++i) {
      ivf.Add(static_cast<ChunkId>(i), corpus[i]);
    }
    ivf.Train();
    ivf.SearchBatch(queries, 5, nullptr, std::vector<RetrievalQuality>(queries.size()));
    fixed_means.push_back(ivf.mean_probes());
    ivf.ResetProbeStats();
    ivf.SearchBatch(queries, 5, nullptr, std::vector<RetrievalQuality>(queries.size(), adaptive));
    adaptive_means.push_back(ivf.mean_probes());
  }
  EXPECT_EQ(fixed_means[0], fixed_means[1]);
  EXPECT_EQ(fixed_means[0], 2.0);  // Fixed nprobe=2 probes exactly 2 lists.
  EXPECT_EQ(adaptive_means[0], adaptive_means[1]);
}

TEST(ShardedParityTest, ShardOfIdIsStableAndInRange) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
    for (ChunkId id = 0; id < 100; ++id) {
      size_t s = ShardOfId(id, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ShardOfId(id, shards));  // Pure function of (id, shards).
    }
  }
  EXPECT_EQ(ShardOfId(12345, 1), 0u);
}

// --- Database-level batching + memo cache ------------------------------------

std::unique_ptr<VectorDatabase> MakeDb() {
  auto db = std::make_unique<VectorDatabase>(
      EmbeddingModel(GetEmbeddingModel("all-mpnet-base-v2-sim")),
      DatabaseMetadata{"parity corpus", 64, "test"});
  const char* texts[] = {
      "the kimbrough stadium sits in randall county texas",
      "quarterly semiconductor revenue beat analyst expectations",
      "the committee meeting adjourned after the budget vote",
      "rainfall totals in the river basin broke the seasonal record",
      "the stadium hosted the county championship game in randall",
      "chip fabrication capacity expanded across three new plants",
  };
  for (const char* t : texts) {
    Chunk c;
    c.text = t;
    db->AddChunk(std::move(c));
  }
  return db;
}

TEST(RetrievalParityTest, RetrieveBatchMatchesSequentialRetrieve) {
  std::unique_ptr<VectorDatabase> dbp = MakeDb();
  VectorDatabase& db = *dbp;
  std::vector<std::string> queries = {
      "what county is the kimbrough stadium in",
      "semiconductor revenue this quarter",
      "what county is the kimbrough stadium in",  // Repeat: exercises the cache.
      "budget vote at the committee meeting",
  };
  auto batched = db.RetrieveBatch(queries, 4, std::vector<RetrievalQuality>(queries.size()));
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto direct = db.RetrieveWithDistances(queries[i], 4);
    ExpectSameRanking(batched[i], direct, "query " + std::to_string(i));
  }
  // 4 unique texts total across both passes; everything else was memoized.
  EXPECT_GT(db.query_cache_hits(), 0u);
}

TEST(RetrievalParityTest, TruncatedBatchWidthIsAPrefixOfWiderSearch) {
  // Dense top-k lists are prefix-consistent under the (distance,
  // insertion-order) total order. (Fused hybrid answers are not, which is
  // why the batcher sweeps once per width.)
  std::unique_ptr<VectorDatabase> dbp = MakeDb();
  VectorDatabase& db = *dbp;
  auto wide = db.RetrieveWithDistances("stadium county game", 6);
  for (size_t k = 1; k <= 6; ++k) {
    auto narrow = db.RetrieveWithDistances("stadium county game", k);
    ASSERT_EQ(narrow.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(narrow[i].id, wide[i].id) << "k=" << k << " rank=" << i;
    }
  }
}

TEST(RetrievalParityTest, RetrievalBatcherCoalescesSameTickRequests) {
  std::unique_ptr<VectorDatabase> dbp = MakeDb();
  VectorDatabase& db = *dbp;
  Simulator sim;
  RetrievalBatcher batcher(&sim, &db, 0.004);

  struct Got {
    SimTime at = -1;
    std::vector<ChunkId> ids;
  };
  std::vector<Got> got(4);
  std::vector<std::string> queries = {
      "what county is the kimbrough stadium in",
      "semiconductor revenue this quarter",
      "budget vote at the committee meeting",
      "rainfall in the river basin",
  };
  // Three requests at t=0 (widths 2, 2, 3), one more at t=0.001.
  std::vector<size_t> ks = {2, 2, 3, 2};
  for (size_t i = 0; i < 3; ++i) {
    batcher.Submit(queries[i], ks[i], RetrievalQuality{}, [&, i](std::vector<ChunkId> ids) {
      got[i].at = sim.now();
      got[i].ids = std::move(ids);
    });
  }
  sim.ScheduleAt(0.001, [&]() {
    batcher.Submit(queries[3], ks[3], RetrievalQuality{}, [&](std::vector<ChunkId> ids) {
      got[3].at = sim.now();
      got[3].ids = std::move(ids);
    });
  });
  sim.Run();

  // Timing is exactly Submit + delay, per request.
  EXPECT_DOUBLE_EQ(got[0].at, 0.004);
  EXPECT_DOUBLE_EQ(got[1].at, 0.004);
  EXPECT_DOUBLE_EQ(got[2].at, 0.004);
  EXPECT_DOUBLE_EQ(got[3].at, 0.005);
  // The same-tick k=2 pair shared one sweep, the k=3 request got its own
  // (one sweep per width), and so did the straggler.
  EXPECT_EQ(batcher.requests(), 4u);
  EXPECT_EQ(batcher.batches_issued(), 3u);
  EXPECT_EQ(batcher.max_batch_size(), 2u);
  // Results identical to direct per-query retrieval at the requested widths.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i].ids, db.Retrieve(queries[i], ks[i])) << "request " << i;
  }
}

// A same-tick group that asks for one hybrid query at two widths: each
// request must get exactly what a direct Retrieve at its own width returns.
// Fusion ranks each leg's own top-k, so the top 2 of a fused k=40 answer is
// not in general the fused k=2 answer, and widths must not share a sweep.
TEST(RetrievalParityTest, RetrievalBatcherSweepsHybridGroupOncePerWidth) {
  RetrievalIndexOptions options;
  options.lexical = true;
  VectorDatabase db(EmbeddingModel(GetEmbeddingModel("all-mpnet-base-v2-sim")),
                    DatabaseMetadata{"hybrid batcher corpus", 64, "test"}, options);
  const char* words[] = {"stadium", "county",  "randall", "revenue", "quarter", "budget",
                         "vote",    "meeting", "river",   "basin",   "rainfall", "chip",
                         "plant",   "merger",  "treaty",  "glacier", "harvest", "orbit"};
  const int num_words = 18;
  for (int i = 0; i < 400; ++i) {
    Chunk c;
    for (int w = 0; w < 7; ++w) {
      c.text += std::string(w == 0 ? "" : " ") + words[(i * (w + 2) + w * w + i / 9) % num_words];
    }
    db.AddChunk(std::move(c));
  }
  db.FinalizeIndex();
  RetrievalQuality hybrid;
  hybrid.hybrid = true;
  hybrid.dense_weight = 0.5f;
  hybrid.lexical_weight = 0.5f;
  std::vector<std::string> queries = {
      "stadium county randall", "quarter revenue merger", "budget vote meeting",
      "river basin rainfall",   "chip plant revenue",     "treaty glacier harvest",
      "orbit county vote",      "harvest rainfall basin",
  };

  Simulator sim;
  RetrievalBatcher batcher(&sim, &db, 0.004);
  std::vector<std::vector<ChunkId>> narrow(queries.size());
  std::vector<std::vector<ChunkId>> wide(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    batcher.Submit(queries[i], 2, hybrid,
                   [&narrow, i](std::vector<ChunkId> ids) { narrow[i] = std::move(ids); });
    batcher.Submit(queries[i], 40, hybrid,
                   [&wide, i](std::vector<ChunkId> ids) { wide[i] = std::move(ids); });
  }
  sim.Run();

  EXPECT_EQ(batcher.batches_issued(), 2u);  // One sweep per width.
  EXPECT_EQ(batcher.max_batch_size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(narrow[i], db.Retrieve(queries[i], 2, hybrid)) << "k=2 query " << i;
    EXPECT_EQ(wide[i], db.Retrieve(queries[i], 40, hybrid)) << "k=40 query " << i;
  }
}

}  // namespace
}  // namespace metis
