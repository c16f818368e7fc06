// Determinism + parity property tests for the quantized index tiers
// (src/vectordb/quantize.h): int8 SQ and PQ mirrors with the exact-rerank
// tail, layered over both static backends and the mutable index.
//
// Contracts under test:
//
//   - u8 kernel tier parity: DotU8F32 is bit-identical across scalar /
//     AVX2 / AVX-512 (16 float chains, fixed reduction tree).
//   - fp32 bit-parity: an index built WITH quantized mirrors, queried at
//     precision=fp32, returns bit-identical ids/order/distances to an index
//     built with no quantization at all. The knob off == the knob absent.
//   - Quantized determinism: for a fixed (tier, rerank_factor), results are
//     identical across shards {1,4} x threads {1,4} x flat/IVF(full-probe),
//     and across repeated runs — ids, order, AND distances (the rerank tail
//     re-scores with the exact kernel, so distances are exact fp32).
//   - Mutable index: quantized searches after an insert/delete/seal/compact/
//     retrain history are deterministic (same history -> same results) and
//     fp32 queries stay bit-identical to the quant-free twin.
//   - Probe accounting: quantized searches on IVF record the same probe
//     counts as their fp32 twins (probe planning is always fp32), and the
//     rerank pass is NOT a probe.
//   - Recall: int8 + rerank recovers >= 0.99 recall@10 on the clustered
//     corpus; PQ with generous rerank stays usable.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/vectordb/clustered_corpus.h"
#include "src/vectordb/kernels.h"
#include "src/vectordb/mutable_index.h"
#include "src/vectordb/quantize.h"
#include "src/vectordb/recall.h"
#include "src/vectordb/vectordb.h"

namespace metis {
namespace {

struct ScopedKernelTarget {
  explicit ScopedKernelTarget(KernelTarget t) { METIS_CHECK(SetKernelTarget(t)); }
  ~ScopedKernelTarget() { ResetKernelTarget(); }
};

std::vector<KernelTarget> SupportedTargets() {
  std::vector<KernelTarget> targets;
  for (KernelTarget t : {KernelTarget::kScalar, KernelTarget::kAvx2, KernelTarget::kAvx512}) {
    if (KernelTargetSupported(t)) {
      targets.push_back(t);
    }
  }
  return targets;
}

void ExpectBitEqual(const std::vector<SearchHit>& got, const std::vector<SearchHit>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " rank " << i;
  }
}

QuantizationOptions BothTiers() {
  QuantizationOptions q;
  q.sq = true;
  q.pq = true;
  q.pq_m = 8;
  return q;
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

// --- Static backend: fp32 bit-parity + quantized determinism -----------------

struct StaticCase {
  RetrievalIndexOptions::Backend backend;
  size_t shards;
  size_t threads;
};

std::vector<StaticCase> StaticGrid() {
  std::vector<StaticCase> cases;
  for (auto backend :
       {RetrievalIndexOptions::Backend::kFlat, RetrievalIndexOptions::Backend::kIvf}) {
    for (size_t shards : {size_t{1}, size_t{4}}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        cases.push_back(StaticCase{backend, shards, threads});
      }
    }
  }
  return cases;
}

std::string CaseName(const StaticCase& c) {
  return std::string(c.backend == RetrievalIndexOptions::Backend::kFlat ? "flat" : "ivf") +
         " shards=" + std::to_string(c.shards) + " threads=" + std::to_string(c.threads);
}

// Builds a static backend over the clustered corpus, mirrors trained.
std::unique_ptr<VectorIndex> BuildStatic(const ClusteredCorpus& corpus, const StaticCase& c,
                                         const QuantizationOptions& quant) {
  RetrievalIndexOptions opts;
  opts.backend = c.backend;
  opts.shards = c.shards;
  opts.nlist = 8;
  opts.nprobe = 8;  // Full probe: IVF results shard/tier-stable for parity.
  opts.quant = quant;
  IvfL2Index* ivf = nullptr;
  std::unique_ptr<VectorIndex> index = MakeBackendIndex(/*dim=*/corpus.centers[0].size(), opts, &ivf);
  for (size_t i = 0; i < corpus.points.size(); ++i) {
    index->Add(static_cast<ChunkId>(i + 1), corpus.points[i]);
  }
  if (ivf != nullptr) {
    ivf->Train();
  }
  if (quant.any()) {
    index->BuildQuantizedMirrors();
  }
  return index;
}

TEST(QuantStaticTest, Fp32QueriesBitIdenticalToQuantFreeIndex) {
  ClusteredCorpus corpus = MakeClusteredCorpus(64, 8, 60, 10, 6, 0x0DDBA11);
  const std::vector<Embedding> queries = corpus.AllQueries();
  for (const StaticCase& c : StaticGrid()) {
    ThreadPool pool(c.threads);
    auto plain = BuildStatic(corpus, c, QuantizationOptions{});
    auto quant = BuildStatic(corpus, c, BothTiers());
    RetrievalQuality fp32;  // Default: precision=kFp32.
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ExpectBitEqual(quant->Search(queries[qi], 10, fp32), plain->Search(queries[qi], 10),
                     CaseName(c) + " q=" + std::to_string(qi));
    }
    // Batch path, all-fp32 qualities: must take the bit-identical sweep.
    std::vector<RetrievalQuality> quals(queries.size());
    auto got = quant->SearchBatch(queries, 10, &pool, quals);
    auto want = plain->SearchBatch(queries, 10, &pool);
    ASSERT_EQ(got.size(), want.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ExpectBitEqual(got[qi], want[qi], CaseName(c) + " batch q=" + std::to_string(qi));
    }
  }
}

TEST(QuantStaticTest, QuantizedResultsInvariantAcrossShardsAndThreads) {
  ClusteredCorpus corpus = MakeClusteredCorpus(64, 8, 60, 10, 6, 0x5EED5);
  const std::vector<Embedding> queries = corpus.AllQueries();
  for (RetrievalPrecision tier : {RetrievalPrecision::kInt8, RetrievalPrecision::kPq}) {
    for (size_t rerank : {size_t{2}, size_t{4}}) {
      RetrievalQuality quality;
      quality.precision = tier;
      quality.rerank_factor = rerank;
      for (auto backend :
           {RetrievalIndexOptions::Backend::kFlat, RetrievalIndexOptions::Backend::kIvf}) {
        // Reference: shards=1, threads=1, per-query Search.
        StaticCase ref_case{backend, 1, 1};
        auto ref = BuildStatic(corpus, ref_case, BothTiers());
        std::vector<std::vector<SearchHit>> want;
        for (const Embedding& q : queries) {
          want.push_back(ref->Search(q, 10, quality));
        }
        for (const StaticCase& c : StaticGrid()) {
          if (c.backend != backend) {
            continue;
          }
          ThreadPool pool(c.threads);
          auto index = BuildStatic(corpus, c, BothTiers());
          const std::string ctx = std::string(RetrievalPrecisionName(tier)) + " rf=" +
                                  std::to_string(rerank) + " " + CaseName(c);
          for (size_t qi = 0; qi < queries.size(); ++qi) {
            ExpectBitEqual(index->Search(queries[qi], 10, quality), want[qi],
                           ctx + " q=" + std::to_string(qi));
          }
          // Batched with per-query qualities (exercises the split path).
          std::vector<RetrievalQuality> quals(queries.size(), quality);
          auto got = index->SearchBatch(queries, 10, &pool, quals);
          for (size_t qi = 0; qi < queries.size(); ++qi) {
            ExpectBitEqual(got[qi], want[qi], ctx + " batch q=" + std::to_string(qi));
          }
        }
      }
    }
  }
}

TEST(QuantStaticTest, MixedQualityBatchMatchesPerQuerySearch) {
  ClusteredCorpus corpus = MakeClusteredCorpus(64, 8, 50, 8, 4, 0x317ED);
  const std::vector<Embedding> queries = corpus.AllQueries();
  StaticCase c{RetrievalIndexOptions::Backend::kIvf, 4, 4};
  ThreadPool pool(c.threads);
  auto index = BuildStatic(corpus, c, BothTiers());
  // Interleave fp32 / int8 / pq across the batch.
  std::vector<RetrievalQuality> quals(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    quals[qi].precision = static_cast<RetrievalPrecision>(qi % 3);
    quals[qi].rerank_factor = 4;
  }
  auto got = index->SearchBatch(queries, 10, &pool, quals);
  ASSERT_EQ(got.size(), queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ExpectBitEqual(got[qi], index->Search(queries[qi], 10, quals[qi]),
                   "mixed batch q=" + std::to_string(qi));
  }
}

TEST(QuantStaticTest, RerankedDistancesAreExact) {
  // Every distance a quantized search returns must equal the exact fp32
  // distance for that id — the rerank tail re-scores with the exact kernel.
  ClusteredCorpus corpus = MakeClusteredCorpus(64, 8, 50, 6, 4, 0xE7AC7);
  StaticCase c{RetrievalIndexOptions::Backend::kFlat, 1, 1};
  auto plain = BuildStatic(corpus, c, QuantizationOptions{});
  auto quant = BuildStatic(corpus, c, BothTiers());
  for (RetrievalPrecision tier : {RetrievalPrecision::kInt8, RetrievalPrecision::kPq}) {
    RetrievalQuality quality;
    quality.precision = tier;
    for (const Embedding& q : corpus.AllQueries()) {
      // Exhaustive exact ranking for distance lookup.
      auto exact = plain->Search(q, corpus.points.size());
      for (const SearchHit& h : quant->Search(q, 10, quality)) {
        bool found = false;
        for (const SearchHit& e : exact) {
          if (e.id == h.id) {
            EXPECT_EQ(h.distance, e.distance)
                << RetrievalPrecisionName(tier) << " id=" << h.id;
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found) << "hit id " << h.id << " not in corpus";
      }
    }
  }
}

// --- Probe accounting --------------------------------------------------------

TEST(QuantProbeTest, QuantizedSearchRecordsSameProbesAsFp32) {
  // Probe planning is always fp32, so a quantized search scans exactly the
  // lists its fp32 twin scans — and the rerank pass is NOT a probe. The
  // histograms of two identical query streams, one per tier, must match.
  ClusteredCorpus corpus = MakeClusteredCorpus(64, 8, 60, 10, 6, 0x9B0BE);
  RetrievalIndexOptions opts;
  opts.backend = RetrievalIndexOptions::Backend::kIvf;
  opts.nlist = 8;
  opts.nprobe = 3;  // Partial probing: histogram is informative.
  opts.quant = BothTiers();
  IvfL2Index* ivf = nullptr;
  auto index = MakeBackendIndex(64, opts, &ivf);
  ASSERT_NE(ivf, nullptr);
  for (size_t i = 0; i < corpus.points.size(); ++i) {
    index->Add(static_cast<ChunkId>(i + 1), corpus.points[i]);
  }
  ivf->Train();
  index->BuildQuantizedMirrors();

  const std::vector<Embedding> queries = corpus.AllQueries();
  std::vector<std::vector<uint64_t>> hists;
  std::vector<double> means;
  for (RetrievalPrecision tier :
       {RetrievalPrecision::kFp32, RetrievalPrecision::kInt8, RetrievalPrecision::kPq}) {
    ivf->ResetProbeStats();
    RetrievalQuality quality;
    quality.precision = tier;
    for (const Embedding& q : queries) {
      index->Search(q, 10, quality);
    }
    EXPECT_EQ(ivf->searches(), queries.size()) << RetrievalPrecisionName(tier);
    hists.push_back(ivf->probe_histogram());
    means.push_back(ivf->mean_probes());
  }
  for (size_t t = 1; t < hists.size(); ++t) {
    EXPECT_EQ(hists[t], hists[0]) << "tier " << t << " histogram diverged from fp32";
    EXPECT_EQ(means[t], means[0]) << "tier " << t << " mean_probes diverged from fp32";
  }
  // Rerank factor must not change probe accounting either.
  ivf->ResetProbeStats();
  RetrievalQuality big_rerank;
  big_rerank.precision = RetrievalPrecision::kInt8;
  big_rerank.rerank_factor = 16;
  for (const Embedding& q : queries) {
    index->Search(q, 10, big_rerank);
  }
  EXPECT_EQ(ivf->probe_histogram(), hists[0]) << "rerank_factor leaked into probe accounting";
}

// --- Mutable index -----------------------------------------------------------

TEST(QuantMutableTest, QuantizedDeterministicAfterChurn) {
  // Two identical (options, op-history) mutable indexes must answer quantized
  // queries identically at every lifecycle checkpoint, and fp32 queries must
  // stay bit-identical to a quant-free twin with the same history.
  const size_t dim = 64;
  ClusteredCorpus corpus = MakeClusteredCorpus(dim, 8, 40, 8, 4, 0xC0DE5);
  const std::vector<Embedding> queries = corpus.AllQueries();

  for (auto backend :
       {RetrievalIndexOptions::Backend::kFlat, RetrievalIndexOptions::Backend::kIvf}) {
    RetrievalIndexOptions opts;
    opts.backend = backend;
    opts.shards = 2;
    opts.nlist = 8;
    opts.nprobe = 8;
    opts.quant = BothTiers();
    opts.mutable_index = true;
    opts.mutation.memtable_rows = 48;
    opts.mutation.compact_segments = 3;
    RetrievalIndexOptions plain_opts = opts;
    plain_opts.quant = QuantizationOptions{};

    auto a = std::make_unique<MutableIndex>(dim, opts);
    auto b = std::make_unique<MutableIndex>(dim, opts);
    auto plain = std::make_unique<MutableIndex>(dim, plain_opts);
    auto run_all = [&](auto&& fn) {
      fn(*a);
      fn(*b);
      fn(*plain);
    };

    // Initial bulk load + finalize (trains base + mirrors).
    run_all([&](MutableIndex& m) {
      for (size_t i = 0; i < corpus.points.size(); ++i) {
        m.Add(static_cast<ChunkId>(i + 1), corpus.points[i]);
      }
      m.Finalize();
    });

    Rng oprng(0xC115 + (backend == RetrievalIndexOptions::Backend::kIvf ? 1 : 0));
    ChunkId next_id = static_cast<ChunkId>(corpus.points.size() + 1);
    auto check = [&](const std::string& stage) {
      for (RetrievalPrecision tier : {RetrievalPrecision::kInt8, RetrievalPrecision::kPq}) {
        RetrievalQuality quality;
        quality.precision = tier;
        quality.rerank_factor = 4;
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          ExpectBitEqual(a->Search(queries[qi], 10, quality), b->Search(queries[qi], 10, quality),
                         stage + " " + RetrievalPrecisionName(tier) + " q=" + std::to_string(qi));
        }
      }
      RetrievalQuality fp32;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        ExpectBitEqual(a->Search(queries[qi], 10, fp32), plain->Search(queries[qi], 10),
                       stage + " fp32-parity q=" + std::to_string(qi));
      }
    };

    check("post-finalize");
    // Churn: inserts (cluster-jittered so they matter to the top-k) and
    // deletes, crossing seal and compaction thresholds.
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 60; ++i) {
        size_t c = oprng.Index(corpus.centers.size());
        Embedding v = Jitter(oprng, corpus.centers[c], 0.35);
        ChunkId id = next_id++;
        run_all([&](MutableIndex& m) { m.Insert(id, v); });
        if (i % 7 == 3) {
          ChunkId victim = static_cast<ChunkId>(1 + oprng.Index(corpus.points.size()));
          run_all([&](MutableIndex& m) { m.Delete(victim); });
        }
      }
      check("churn round " + std::to_string(round));
    }
    run_all([&](MutableIndex& m) { m.SealMemtable(); });
    check("post-seal");
    run_all([&](MutableIndex& m) { m.CompactSegments(); });
    check("post-compact");
    run_all([&](MutableIndex& m) { m.RetrainBase(); });
    check("post-retrain");
  }
}

// --- Recall ------------------------------------------------------------------

TEST(QuantRecallTest, Int8WithRerankRecoversExactRecall) {
  ClusteredCorpus corpus = MakeClusteredCorpus(64, 8, 80, 16, 8, 0x4ECA11);
  FlatL2Index truth(64);
  for (size_t i = 0; i < corpus.points.size(); ++i) {
    truth.Add(static_cast<ChunkId>(i + 1), corpus.points[i]);
  }
  RecallEval eval(truth, corpus.AllQueries(), /*k=*/10);

  StaticCase c{RetrievalIndexOptions::Backend::kFlat, 1, 1};
  auto index = BuildStatic(corpus, c, BothTiers());
  RetrievalQuality int8;
  int8.precision = RetrievalPrecision::kInt8;
  int8.rerank_factor = 4;
  EXPECT_GE(eval.Evaluate(*index, nullptr, int8), 0.99) << "int8+rerank recall@10";
  RetrievalQuality pq;
  pq.precision = RetrievalPrecision::kPq;
  pq.rerank_factor = 8;
  EXPECT_GE(eval.Evaluate(*index, nullptr, pq), 0.90) << "pq+rerank recall@10";
}

// --- bytes_per_row -----------------------------------------------------------

TEST(QuantMemoryTest, BytesPerRowReflectsTierStorage) {
  ClusteredCorpus corpus = MakeClusteredCorpus(64, 8, 40, 4, 2, 0xB17E5);
  StaticCase c{RetrievalIndexOptions::Backend::kFlat, 1, 1};
  auto index = BuildStatic(corpus, c, BothTiers());
  auto* flat = dynamic_cast<FlatL2Index*>(index.get());
  ASSERT_NE(flat, nullptr);
  const size_t fp32 = flat->bytes_per_row(RetrievalPrecision::kFp32);
  const size_t int8 = flat->bytes_per_row(RetrievalPrecision::kInt8);
  const size_t pq = flat->bytes_per_row(RetrievalPrecision::kPq);
  EXPECT_EQ(fp32, 64 * sizeof(float));
  EXPECT_EQ(int8, 64u);  // dim=64 already 64B-aligned.
  EXPECT_EQ(pq, 8u);
  EXPECT_GE(fp32, 8 * pq) << "PQ must deliver >= 8x memory reduction";
}

}  // namespace
}  // namespace metis
