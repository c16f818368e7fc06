// Exactness and soundness tests for the certified fp32 scan (quantize.h,
// vectordb.h): every exact fp32 read of the static indexes scans the int8 SQ
// mirror first and re-scores only the rows its error bound cannot exclude.
//
// Contracts under test:
//
//   - Soundness: for every encoded row and query, the exact float distance
//     (ExactRowDistance, the scans' own expression) lies inside the row's
//     CertifiedInterval — on random-unit, clustered, duplicate, near-tie,
//     offset, on-grid (zero quantization error, so only the weight rounding
//     is left) and out-of-range (clamped-code) corpora, at small and
//     paper-size dim, and on the catalog embedder's vectors of four
//     generated datasets.
//   - Usefulness: on random unit vectors and on the embedder's vectors the
//     bound leaves only a few percent of the rows for pass 2.
//   - Exactness: an index that built its mirror returns ids and float
//     distances bit-equal to the same index with no mirror, for flat and IVF
//     x threads {1,4} x every supported kernel tier x k in {0,1,5,35,>n},
//     through Search (also split across a pool) and SearchOrdered
//     (unfiltered and with an IdFilter excluding ~90% of rows), with and
//     without rows added after the mirror was built (the un-encoded suffix;
//     IVF Add after Train); and for sparse queries (embedded query texts,
//     k-sparse random ones, the all-zero query), whose pass 1 reads only
//     their nonzero weights' dimension pairs.
//   - Mutation: a mutable index through seal, compaction and retrain stays
//     bit-equal to a mirror-free flat build over its live rows.
//   - Necessity: on a near-tie input, re-scoring only the approximate top-k
//     (a zero bound) returns a different answer, which the certified scan
//     does not — a weakened bound fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/embed/embedding.h"
#include "src/vectordb/kernels.h"
#include "src/vectordb/mutable_index.h"
#include "src/vectordb/quantize.h"
#include "src/vectordb/vectordb.h"
#include "src/workload/dataset.h"
#include "tests/fixtures/clustered_corpus.h"
#include "tests/fixtures/seed_reference.h"

namespace metis {
namespace {

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

template <typename Hit>
void ExpectBitEqual(const std::vector<Hit>& got, const std::vector<Hit>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " rank " << i;
  }
}

// --- Corpora -------------------------------------------------------------------

// Odd dim on purpose: the fp32 kernel runs a 4-element tail, and the mirror
// pads each row's 44 codes to 64.
constexpr size_t kDim = 44;

struct Corpus {
  std::string name;
  std::vector<Embedding> rows;
  std::vector<Embedding> queries;
};

Corpus RandomUnit(size_t dim, size_t n, uint64_t seed) {
  Rng rng(seed);
  Corpus c{"random_unit", {}, {}};
  for (size_t i = 0; i < n; ++i) {
    c.rows.push_back(RandomUnitVector(rng, dim));
  }
  for (size_t q = 0; q < 8; ++q) {
    c.queries.push_back(q % 3 == 0 ? c.rows[q * 7] : RandomUnitVector(rng, dim));
  }
  return c;
}

Corpus Clustered(size_t dim) {
  ClusteredCorpus cc = MakeClusteredCorpus(dim, 6, 60, 5, 3, 0xC1057, /*mix_way=*/3);
  return Corpus{"clustered", cc.points, cc.AllQueries()};
}

// A third of the rows are exact copies of earlier rows: distance ties that
// only the candidate order breaks.
Corpus Duplicates(size_t dim) {
  Rng rng(0xD0B1E);
  Corpus c{"duplicates", {}, {}};
  for (size_t i = 0; i < 360; ++i) {
    c.rows.push_back(i >= 60 && i % 3 == 0 ? c.rows[i / 2] : RandomUnitVector(rng, dim));
  }
  for (size_t q = 0; q < 8; ++q) {
    c.queries.push_back(q % 2 == 0 ? c.rows[q * 11] : RandomUnitVector(rng, dim));
  }
  return c;
}

// Groups of rows within ~1e-4 of each other: distances closer than the
// quantization error, so pass 1 cannot separate them and pass 2 must.
Corpus NearTies(size_t dim) {
  Rng rng(0x7E5);
  Corpus c{"near_ties", {}, {}};
  for (size_t g = 0; g < 36; ++g) {
    Embedding base = RandomUnitVector(rng, dim);
    for (size_t j = 0; j < 10; ++j) {
      Embedding v = base;
      v[rng.Index(dim)] += static_cast<float>(rng.Uniform(-1e-4, 1e-4));
      c.rows.push_back(std::move(v));
    }
    if (g % 5 == 0) {
      c.queries.push_back(Jitter(rng, base, 1e-3));
    }
  }
  return c;
}

// Rows far from the origin: large norms, small distances — the double
// decomposition's cancellation is what the bound's term 3 has to cover.
Corpus Offset(size_t dim) {
  Rng rng(0x0FF5E7);
  Corpus c{"offset", {}, {}};
  Embedding center(dim, 50.0f);
  for (size_t i = 0; i < 300; ++i) {
    c.rows.push_back(Jitter(rng, center, 0.05));
  }
  for (size_t q = 0; q < 6; ++q) {
    c.queries.push_back(Jitter(rng, center, 0.05));
  }
  return c;
}

// Rows on the quantization grid: x[d] = -0.5 + c / 256 for integer codes c,
// with codes 0 and 255 in every dimension, so training yields vmin = -0.5
// and scale = 2^-8 exactly and every row reconstructs without error
// (delta = 0). Term 1 is then 0 and the weight rounding (term 2) is all
// that separates D~ from the exact distance: a bound that under-charges it
// fails here.
Corpus OnGrid(size_t dim) {
  Rng rng(0x6A1D);
  Corpus c{"on_grid", {}, {}};
  for (size_t i = 0; i < 200; ++i) {
    Embedding v(dim);
    for (size_t d = 0; d < dim; ++d) {
      size_t code = i == 0 ? 0 : i == 1 ? 255 : rng.Index(256);
      v[d] = -0.5f + static_cast<float>(code) / 256.0f;
    }
    c.rows.push_back(std::move(v));
  }
  for (size_t q = 0; q < 8; ++q) {
    c.queries.push_back(RandomUnitVector(rng, dim));
  }
  return c;
}

// --- Soundness: the bound holds on every row ----------------------------------

// Every encoded row's S against `cq`: the active tier's block kernel, one
// 32-row block at a time, as pass 1 computes it.
std::vector<int64_t> BlockDots(const QuantizedCodes& codes, const CertifiedQuery& cq) {
  std::vector<int64_t> s((codes.rows + kSqBlockRows - 1) / kSqBlockRows * kSqBlockRows);
  for (size_t b = 0; b * kSqBlockRows < codes.rows; ++b) {
    ActiveU8BlockKernel()(codes.block(b), cq.pairs.data(), cq.pairs.size(),
                          s.data() + b * kSqBlockRows);
  }
  s.resize(codes.rows);
  return s;
}

// Pass 1's interval for every encoded row of `pool` against `q`, under the
// active kernel tier.
std::vector<DistanceInterval> Intervals(const Int8Params& sq, const QuantizedCodes& codes,
                                        const RowPool& pool, const float* q) {
  size_t dim = pool.dim();
  CertifiedQuery cq;
  BuildCertifiedQuery(sq, codes.sq_delta, q, dim, SquaredNormBlocked(q, dim), &cq);
  std::vector<int64_t> s = BlockDots(codes, cq);
  std::vector<DistanceInterval> ivs;
  for (size_t i = 0; i < pool.size(); ++i) {
    ivs.push_back(CertifiedInterval(cq, pool.norm(i), s[i]));
  }
  return ivs;
}

// Rows whose lower end is <= U, the k-th smallest upper end: what pass 1
// keeps once U has reached its final value.
size_t Survivors(const std::vector<DistanceInterval>& ivs, size_t k) {
  std::vector<double> his;
  for (const DistanceInterval& iv : ivs) {
    his.push_back(iv.hi);
  }
  std::nth_element(his.begin(), his.begin() + (k - 1), his.end());
  double u = his[k - 1];
  return static_cast<size_t>(std::count_if(ivs.begin(), ivs.end(),
                                           [u](const DistanceInterval& iv) { return iv.lo <= u; }));
}

RowPool PoolOf(const std::vector<Embedding>& rows) {
  RowPool pool(rows[0].size());
  for (size_t i = 0; i < rows.size(); ++i) {
    pool.Append(static_cast<ChunkId>(i), rows[i].data());
  }
  return pool;
}

// Checks lo <= exact <= hi for every (row, query), with the quantizer trained
// on rows [0, train_rows) and every row encoded — rows outside the training
// range get clamped codes, whose error the measured delta must cover.
void ExpectBoundHolds(const Corpus& c, size_t train_rows) {
  size_t dim = c.rows[0].size();
  RowPool pool = PoolOf(c.rows);
  Int8Params sq =
      TrainInt8([&](size_t i) { return c.rows[i].data(); }, train_rows, dim, nullptr);
  QuantizedCodes codes;
  EncodeRows(sq, pool, 0, pool.size(), &codes, nullptr);
  std::vector<Embedding> queries = c.queries;
  // A far query and a scaled one stress the magnitude terms.
  Embedding far = c.queries[0];
  for (float& x : far) {
    x = -3.0f * x + 1.0f;
  }
  queries.push_back(far);
  for (KernelTarget target : SupportedTargets()) {
    ScopedKernelTarget scoped(target);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const float* q = queries[qi].data();
      double qnorm = SquaredNormBlocked(q, dim);
      std::vector<DistanceInterval> ivs = Intervals(sq, codes, pool, q);
      for (size_t i = 0; i < pool.size(); ++i) {
        double exact = ExactRowDistance(pool, i, q, qnorm);
        ASSERT_LE(ivs[i].lo, exact) << c.name << " target=" << KernelTargetName(target)
                                    << " q=" << qi << " row=" << i;
        ASSERT_GE(ivs[i].hi, exact) << c.name << " target=" << KernelTargetName(target)
                                    << " q=" << qi << " row=" << i;
      }
    }
  }
}

TEST(CertifiedBoundTest, ExactDistanceLiesInsideTheIntervalOnEveryRow) {
  for (const Corpus& c : {RandomUnit(kDim, 300, 0xB0D), Clustered(kDim), Duplicates(kDim),
                          NearTies(kDim), Offset(kDim), OnGrid(kDim), OnGrid(1024),
                          RandomUnit(1024, 120, 0xB1C)}) {
    ExpectBoundHolds(c, c.rows.size());
  }
}

TEST(CertifiedBoundTest, ClampedCodesStayInsideTheInterval) {
  // Train on the first third only: the rest falls partly outside the
  // per-dimension [vmin, vmin + 255 * scale] range and clamps.
  for (const Corpus& c : {RandomUnit(kDim, 300, 0xC1A), Clustered(kDim), Offset(kDim)}) {
    ExpectBoundHolds(c, c.rows.size() / 3);
  }
}

TEST(CertifiedBoundTest, BoundLeavesFewRowsForPassTwo) {
  const size_t dim = 256;
  const size_t k = 10;
  Corpus c = RandomUnit(dim, 2000, 0x5EED);
  RowPool pool = PoolOf(c.rows);
  Int8Params sq =
      TrainInt8([&](size_t i) { return c.rows[i].data(); }, c.rows.size(), dim, nullptr);
  QuantizedCodes codes;
  EncodeRows(sq, pool, 0, pool.size(), &codes, nullptr);
  Rng rng(0xFEE);
  size_t kept = 0;
  size_t scanned = 0;
  for (size_t qi = 0; qi < 8; ++qi) {
    Embedding q = RandomUnitVector(rng, dim);
    kept += Survivors(Intervals(sq, codes, pool, q.data()), k);
    scanned += pool.size();
  }
  EXPECT_LT(static_cast<double>(kept), 0.05 * static_cast<double>(scanned))
      << kept << " of " << scanned << " rows survive pass 1";
}

// The vectors every perfbench workload scans: the catalog embedder's hashed,
// sparse dim-1024 output, where one large component sets the query's weight
// scale. Chunk and query texts come from the generated dataset.
Corpus Embedded(const std::string& dataset, int num_queries) {
  std::unique_ptr<Dataset> ds =
      DatasetGenerator(GetDatasetProfile(dataset), 11).Generate(num_queries, "cohere-embed-v3-sim");
  EmbeddingModel model(GetEmbeddingModel("cohere-embed-v3-sim"));
  std::vector<std::string> texts;
  for (size_t i = 0; i < ds->db().num_chunks(); ++i) {
    texts.push_back(ds->db().chunk(static_cast<ChunkId>(i)).text);
  }
  Corpus c{dataset, model.EmbedBatch(texts), {}};
  for (const RagQuery& q : ds->queries()) {
    c.queries.push_back(model.Embed(q.text));
  }
  return c;
}

TEST(CertifiedBoundTest, RealEmbedderVectorsStayInsideTheIntervalAndFewSurvive) {
  const size_t k = 10;
  for (const char* name : {"squad", "musique", "kg_rag_finsec", "qmsum"}) {
    Corpus c = Embedded(name, 100);
    size_t dim = c.rows[0].size();
    RowPool pool = PoolOf(c.rows);
    Int8Params sq =
        TrainInt8([&](size_t i) { return c.rows[i].data(); }, c.rows.size(), dim, nullptr);
    QuantizedCodes codes;
    EncodeRows(sq, pool, 0, pool.size(), &codes, nullptr);
    size_t kept = 0;
    size_t scanned = 0;
    for (size_t qi = 0; qi < c.queries.size(); ++qi) {
      const float* q = c.queries[qi].data();
      double qnorm = SquaredNormBlocked(q, dim);
      std::vector<DistanceInterval> ivs = Intervals(sq, codes, pool, q);
      for (size_t i = 0; i < pool.size(); ++i) {
        double exact = ExactRowDistance(pool, i, q, qnorm);
        ASSERT_LE(ivs[i].lo, exact) << name << " q=" << qi << " row=" << i;
        ASSERT_GE(ivs[i].hi, exact) << name << " q=" << qi << " row=" << i;
      }
      kept += Survivors(ivs, k);
      scanned += ivs.size();
    }
    std::printf("[ INFO ] %s: %zu of %zu rows survive pass 1 (%.2f%%)\n", name, kept, scanned,
                100.0 * static_cast<double>(kept) / static_cast<double>(scanned));
    EXPECT_LT(static_cast<double>(kept), 0.03 * static_cast<double>(scanned))
        << name << ": " << kept << " of " << scanned << " rows survive pass 1";
  }
}

// --- Exactness: mirror vs no mirror -------------------------------------------

// One Search per query, the queries split across `pool`: concurrent reads
// of one index.
std::vector<std::vector<SearchHit>> SearchEach(const VectorIndex& index,
                                               const std::vector<Embedding>& queries, size_t k,
                                               ThreadPool* pool) {
  std::vector<std::vector<SearchHit>> out(queries.size());
  ParallelFor(pool, queries.size(), [&](size_t begin, size_t end) {
    for (size_t qi = begin; qi < end; ++qi) {
      out[qi] = index.Search(queries[qi], k, RetrievalQuality{});
    }
  });
  return out;
}

struct IndexCase {
  RetrievalIndexOptions::Backend backend;
  size_t suffix;  // Rows added after the mirror was built.
};

std::string CaseName(const Corpus& c, const IndexCase& ic) {
  return c.name + (ic.backend == RetrievalIndexOptions::Backend::kFlat ? " flat" : " ivf") +
         " suffix=" + std::to_string(ic.suffix);
}

// Builds the index over corpus rows (ids 3i + 1): the first n - suffix rows,
// then IVF training and (if `mirror`) the SQ mirror, then the rest — which
// IVF assigns to its trained lists, past every list's encoded prefix.
std::unique_ptr<VectorIndex> Build(const Corpus& c, const IndexCase& ic, bool mirror) {
  RetrievalIndexOptions opts;
  opts.backend = ic.backend;
  opts.nlist = 6;
  opts.nprobe = 3;
  IvfL2Index* ivf = nullptr;
  std::unique_ptr<VectorIndex> index = MakeBackendIndex(c.rows[0].size(), opts, &ivf);
  size_t cut = c.rows.size() - ic.suffix;
  for (size_t i = 0; i < cut; ++i) {
    index->Add(static_cast<ChunkId>(3 * i + 1), c.rows[i]);
  }
  if (ivf != nullptr) {
    ivf->Train(nullptr);
  }
  if (mirror) {
    ThreadPool pool(3);
    EXPECT_TRUE(index->BuildQuantizedMirrors(&pool));
  }
  for (size_t i = cut; i < c.rows.size(); ++i) {
    index->Add(static_cast<ChunkId>(3 * i + 1), c.rows[i]);
  }
  return index;
}

// Sorted ids of ~90% of the rows (every id whose row index is not 0 mod 10).
std::vector<ChunkId> MostIds(size_t n) {
  std::vector<ChunkId> ids;
  for (size_t i = 0; i < n; ++i) {
    if (i % 10 != 0) {
      ids.push_back(static_cast<ChunkId>(3 * i + 1));
    }
  }
  return ids;
}

TEST(CertifiedScanTest, MirrorMatchesMirrorFreeIndexBitForBit) {
  const std::vector<Corpus> corpora = {RandomUnit(kDim, 360, 0xA11), Clustered(kDim),
                                       Duplicates(kDim), NearTies(kDim)};
  for (const Corpus& c : corpora) {
    const size_t n = c.rows.size();
    const std::vector<ChunkId> most = MostIds(n);
    const IdFilter filter{most.data(), most.data() + most.size()};
    for (auto backend :
         {RetrievalIndexOptions::Backend::kFlat, RetrievalIndexOptions::Backend::kIvf}) {
      for (size_t suffix : {size_t{0}, n / 5}) {
        IndexCase ic{backend, suffix};
        auto plain = Build(c, ic, /*mirror=*/false);
        auto certified = Build(c, ic, /*mirror=*/true);
        RetrievalQuality fp32;
        for (size_t k : {size_t{0}, size_t{1}, size_t{5}, size_t{35}, n + 5}) {
          std::string at = CaseName(c, ic) + " k=" + std::to_string(k);
          std::vector<std::vector<SearchHit>> want;
          std::vector<std::vector<OrderedHit>> want_ordered;
          std::vector<std::vector<OrderedHit>> want_filtered;
          for (const Embedding& q : c.queries) {
            want.push_back(plain->Search(q, k, fp32));
            want_ordered.push_back(plain->SearchOrdered(q, k, fp32, IdFilter{}));
            want_filtered.push_back(plain->SearchOrdered(q, k, fp32, filter));
          }
          for (KernelTarget target : SupportedTargets()) {
            ScopedKernelTarget scoped(target);
            std::string tat = at + " target=" + KernelTargetName(target);
            for (size_t qi = 0; qi < c.queries.size(); ++qi) {
              std::string qat = tat + " q=" + std::to_string(qi);
              ExpectBitEqual(certified->Search(c.queries[qi], k, fp32), want[qi], qat);
              std::vector<OrderedHit> ordered =
                  certified->SearchOrdered(c.queries[qi], k, fp32, IdFilter{});
              ExpectBitEqual(ordered, want_ordered[qi], qat + " ordered");
              for (size_t r = 0; r < ordered.size(); ++r) {
                EXPECT_EQ(ordered[r].order, want_ordered[qi][r].order) << qat << " rank " << r;
              }
              ExpectBitEqual(certified->SearchOrdered(c.queries[qi], k, fp32, filter),
                             want_filtered[qi], qat + " filtered");
            }
            for (size_t threads : {size_t{1}, size_t{4}}) {
              ThreadPool pool(threads);
              auto got = SearchEach(*certified, c.queries, k, &pool);
              for (size_t qi = 0; qi < c.queries.size(); ++qi) {
                ExpectBitEqual(got[qi], want[qi],
                               tat + " pooled threads=" + std::to_string(threads) +
                                   " q=" + std::to_string(qi));
              }
            }
          }
        }
      }
    }
  }
}

// Pass 1 reads only the dimension pairs where a query has a nonzero weight.
// The catalog embedder's query texts weight a few dozen of 1024 dimensions;
// k-sparse random queries go down to one coordinate, one pair and the
// all-zero query. Each must read what the mirror-free index reads — ids,
// float distances and orders — through Search split across a pool and
// through SearchOrdered with an exclude set, on a row count that leaves
// every code array a partial last block.
TEST(CertifiedScanTest, SparseQueriesMatchMirrorFreeIndexBitForBit) {
  Corpus c = Embedded("squad", 60);
  if (c.rows.size() % kSqBlockRows == 0) {
    c.rows.pop_back();
  }
  const size_t n = c.rows.size();
  const size_t dim = c.rows[0].size();
  size_t nonzero = 0;
  for (const Embedding& q : c.queries) {
    nonzero += static_cast<size_t>(
        std::count_if(q.begin(), q.end(), [](float x) { return x != 0.0f; }));
  }
  ASSERT_LT(nonzero, c.queries.size() * dim / 8) << "precondition: embedded queries are sparse";
  Rng rng(0x5BA25);
  for (size_t nz : {size_t{0}, size_t{1}, size_t{2}, size_t{5}, size_t{33}}) {
    Embedding q(dim, 0.0f);
    for (size_t i = 0; i < nz; ++i) {
      q[rng.Index(dim)] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    if (nz == 2) {  // Both coordinates of one pair.
      q.assign(dim, 0.0f);
      q[40] = 0.5f;
      q[41] = -0.25f;
    }
    c.queries.push_back(q);
  }
  const std::vector<ChunkId> most = MostIds(n);
  const IdFilter filter{most.data(), most.data() + most.size()};
  const RetrievalQuality fp32;
  ThreadPool pool(3);
  for (auto backend :
       {RetrievalIndexOptions::Backend::kFlat, RetrievalIndexOptions::Backend::kIvf}) {
    IndexCase ic{backend, 0};
    auto plain = Build(c, ic, /*mirror=*/false);
    auto certified = Build(c, ic, /*mirror=*/true);
    for (size_t k : {size_t{1}, size_t{10}}) {
      std::string at = CaseName(c, ic) + " n=" + std::to_string(n) + " k=" + std::to_string(k);
      std::vector<std::vector<SearchHit>> want = SearchEach(*plain, c.queries, k, nullptr);
      std::vector<std::vector<OrderedHit>> want_filtered;
      for (const Embedding& q : c.queries) {
        want_filtered.push_back(plain->SearchOrdered(q, k, fp32, filter));
      }
      for (KernelTarget target : SupportedTargets()) {
        ScopedKernelTarget scoped(target);
        std::string tat = at + " target=" + KernelTargetName(target);
        std::vector<std::vector<SearchHit>> got = SearchEach(*certified, c.queries, k, &pool);
        for (size_t qi = 0; qi < c.queries.size(); ++qi) {
          std::string qat = tat + " q=" + std::to_string(qi);
          ExpectBitEqual(got[qi], want[qi], qat + " pooled");
          std::vector<OrderedHit> filtered =
              certified->SearchOrdered(c.queries[qi], k, fp32, filter);
          ExpectBitEqual(filtered, want_filtered[qi], qat + " filtered");
          for (size_t r = 0; r < filtered.size(); ++r) {
            EXPECT_EQ(filtered[r].order, want_filtered[qi][r].order) << qat << " rank " << r;
          }
        }
      }
    }
  }
}

TEST(CertifiedScanTest, MutableIndexThroughSealCompactRetrainMatchesMirrorFreeBuild) {
  Corpus c = RandomUnit(kDim, 420, 0x3A7);
  RetrievalIndexOptions opts;
  opts.mutable_index = true;
  opts.mutation.memtable_rows = 32;
  opts.mutation.compact_segments = 3;
  opts.mutation.retrain_delta_fraction = 10.0;  // Retrain only when asked.
  MutableIndex index(kDim, opts);
  std::vector<std::pair<ChunkId, Embedding>> live;
  auto insert = [&](size_t i) {
    index.Insert(static_cast<ChunkId>(i), c.rows[i]);
    live.emplace_back(static_cast<ChunkId>(i), c.rows[i]);
  };
  auto erase = [&](ChunkId id) {
    ASSERT_TRUE(index.Delete(id));
    live.erase(std::find_if(live.begin(), live.end(),
                            [id](const auto& row) { return row.first == id; }));
  };
  ThreadPool pool(4);
  auto check = [&](const std::string& stage) {
    FlatL2Index ref(kDim);  // Never mirrored.
    for (const auto& [id, v] : live) {
      ref.Add(id, v);
    }
    for (size_t k : {size_t{1}, size_t{5}, size_t{35}}) {
      auto got = SearchEach(index, c.queries, k, &pool);
      for (size_t qi = 0; qi < c.queries.size(); ++qi) {
        std::string at = stage + " k=" + std::to_string(k) + " q=" + std::to_string(qi);
        std::vector<SearchHit> want = ref.Search(c.queries[qi], k, RetrievalQuality{});
        ExpectBitEqual(got[qi], want, at);
        ExpectBitEqual(index.Search(c.queries[qi], k, RetrievalQuality{}), want, at);
      }
    }
  };
  for (size_t i = 0; i < 200; ++i) {
    insert(i);
  }
  index.Finalize(&pool);
  check("finalized");
  for (size_t i = 200; i < 330; ++i) {
    insert(i);
    if (i % 7 == 0) {
      erase(static_cast<ChunkId>(i / 2));
    }
  }
  check("sealed");
  index.CompactSegments();
  check("compacted");
  index.RetrainBase(&pool);
  check("retrained");
  for (size_t i = 330; i < c.rows.size(); ++i) {
    insert(i);
  }
  erase(3);
  check("after retrain");
  EXPECT_GE(index.stats().seals, 1u);
  EXPECT_GE(index.stats().compactions, 1u);
  EXPECT_GE(index.stats().retrains, 1u);
}

// --- Necessity: a zero bound answers wrongly -----------------------------------

TEST(CertifiedScanTest, ZeroBoundWouldMissTheExactWinner) {
  const size_t dim = 16;
  // Rows b (order 0) and a (order 1) get identical codes, but b's stored norm
  // is smaller, so b has the smaller approximate distance while a is exactly
  // closer to q. Rows r1, r2 only stretch the quantizer's range.
  auto row = [dim](float x0, float x1) {
    Embedding v(dim, 0.0f);
    v[0] = x0;
    v[1] = x1;
    return v;
  };
  Corpus c{"near_tie_pair",
           {row(0.4995f, 0.5f), row(0.501f, 0.499f), row(-1.0f, -1.0f), row(-1.0f, 1.0f)},
           {row(1.0f, 0.0f)}};
  const Embedding& q = c.queries[0];
  const size_t k = 1;

  RowPool pool(dim);
  for (size_t i = 0; i < c.rows.size(); ++i) {
    pool.Append(static_cast<ChunkId>(3 * i + 1), c.rows[i].data());
  }
  Int8Params sq =
      TrainInt8([&](size_t i) { return c.rows[i].data(); }, c.rows.size(), dim, nullptr);
  QuantizedCodes codes;
  EncodeRows(sq, pool, 0, pool.size(), &codes, nullptr);
  for (size_t d = 0; d < codes.sq_stride; ++d) {
    ASSERT_EQ(codes.code(0, d), codes.code(1, d))
        << "precondition: rows b and a share their codes, dim " << d;
  }

  // The approximate top-k (D~ with B = 0), re-scored exactly.
  double qnorm = SquaredNormBlocked(q.data(), dim);
  CertifiedQuery cq;
  BuildCertifiedQuery(sq, codes.sq_delta, q.data(), dim, qnorm, &cq);
  std::vector<int64_t> s = BlockDots(codes, cq);
  std::vector<std::pair<double, size_t>> approx;
  for (size_t i = 0; i < pool.size(); ++i) {
    approx.emplace_back(
        pool.norm(i) + qnorm - 2.0 * (cq.qv + cq.alpha * static_cast<double>(s[i])), i);
  }
  std::sort(approx.begin(), approx.end());
  std::vector<std::pair<float, size_t>> rescored;
  for (size_t r = 0; r < k; ++r) {
    size_t i = approx[r].second;
    rescored.emplace_back(ExactRowDistance(pool, i, q.data(), qnorm), i);
  }
  std::sort(rescored.begin(), rescored.end());
  const ChunkId zero_bound_winner = pool.id(rescored[0].second);

  for (auto backend :
       {RetrievalIndexOptions::Backend::kFlat, RetrievalIndexOptions::Backend::kIvf}) {
    IndexCase ic{backend, 0};
    auto plain = Build(c, ic, /*mirror=*/false);
    auto certified = Build(c, ic, /*mirror=*/true);
    std::vector<SearchHit> want = plain->Search(q, k, RetrievalQuality{});
    ASSERT_EQ(want.size(), 1u);
    EXPECT_EQ(want[0].id, 4) << "row a (index 1) is exactly closest";
    EXPECT_NE(zero_bound_winner, want[0].id) << "a zero bound must answer wrongly here";
    ExpectBitEqual(certified->Search(q, k, RetrievalQuality{}), want, CaseName(c, ic));
  }
}

}  // namespace
}  // namespace metis
