// Exactness and soundness tests for the certified fp32 scan (quantize.h,
// vectordb.h): every exact fp32 read of the static indexes scans the int8 SQ
// mirror first and re-scores only the rows its error bound cannot exclude.
//
// Contracts under test:
//
//   - Soundness: for every encoded row and query, the exact float distance
//     (ExactRowDistance, the scans' own expression) lies inside the row's
//     CertifiedInterval — on random-unit, clustered, duplicate, near-tie,
//     offset and out-of-range (clamped-code) corpora, at small and paper-size
//     dim.
//   - Usefulness: on random unit vectors the bound leaves only a few percent
//     of the rows for pass 2.
//   - Exactness: an index that built its mirror returns ids and float
//     distances bit-equal to the same index with no mirror, for flat and IVF
//     x shards {1,3} x threads {1,4} x every supported kernel tier x
//     k in {0,1,5,35,>n}, through Search, SearchBatch and SearchOrdered
//     (unfiltered and with an IdFilter excluding ~90% of rows), with and
//     without rows added after the mirror was built (the un-encoded suffix;
//     IVF Add after Train).
//   - Mutation: a mutable index through seal, compaction and retrain stays
//     bit-equal to a mirror-free flat build over its live rows.
//   - Necessity: on a near-tie input, re-scoring only the approximate top-k
//     (a zero bound) returns a different answer, which the certified scan
//     does not — a weakened bound fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/vectordb/clustered_corpus.h"
#include "src/vectordb/kernels.h"
#include "src/vectordb/mutable_index.h"
#include "src/vectordb/quantize.h"
#include "src/vectordb/seed_reference.h"
#include "src/vectordb/vectordb.h"

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

// Odd dim on purpose: the u8 kernel runs a 12-element tail (44 = 2*16 + 12)
// and the fp32 kernel a 4-element one.
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

// --- Soundness: the bound holds on every row ----------------------------------

// Checks lo <= exact <= hi for every (row, query), with the quantizer trained
// on rows [0, train_rows) and every row encoded — rows outside the training
// range get clamped codes, whose error the measured delta must cover.
void ExpectBoundHolds(const Corpus& c, size_t train_rows) {
  size_t dim = c.rows[0].size();
  RowPool pool(dim);
  for (size_t i = 0; i < c.rows.size(); ++i) {
    pool.Append(static_cast<ChunkId>(i), c.rows[i].data());
  }
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
      CertifiedQuery cq;
      BuildCertifiedQuery(sq, codes.sq_delta, q, dim, qnorm, &cq);
      for (size_t i = 0; i < pool.size(); ++i) {
        float s = DotU8F32(codes.sq.data() + i * codes.sq_stride, cq.w.data(), dim);
        DistanceInterval iv = CertifiedInterval(cq, pool.norm(i), s);
        double exact = ExactRowDistance(pool, i, q, qnorm);
        ASSERT_LE(iv.lo, exact) << c.name << " target=" << KernelTargetName(target)
                                << " q=" << qi << " row=" << i;
        ASSERT_GE(iv.hi, exact) << c.name << " target=" << KernelTargetName(target)
                                << " q=" << qi << " row=" << i;
      }
    }
  }
}

TEST(CertifiedBoundTest, ExactDistanceLiesInsideTheIntervalOnEveryRow) {
  for (const Corpus& c : {RandomUnit(kDim, 300, 0xB0D), Clustered(kDim), Duplicates(kDim),
                          NearTies(kDim), Offset(kDim), RandomUnit(1024, 120, 0xB1C)}) {
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
  RowPool pool(dim);
  for (size_t i = 0; i < c.rows.size(); ++i) {
    pool.Append(static_cast<ChunkId>(i), c.rows[i].data());
  }
  Int8Params sq =
      TrainInt8([&](size_t i) { return c.rows[i].data(); }, c.rows.size(), dim, nullptr);
  QuantizedCodes codes;
  EncodeRows(sq, pool, 0, pool.size(), &codes, nullptr);
  Rng rng(0xFEE);
  size_t kept = 0;
  size_t scanned = 0;
  for (size_t qi = 0; qi < 8; ++qi) {
    Embedding q = RandomUnitVector(rng, dim);
    CertifiedQuery cq;
    BuildCertifiedQuery(sq, codes.sq_delta, q.data(), dim, SquaredNormBlocked(q.data(), dim), &cq);
    std::vector<DistanceInterval> ivs;
    for (size_t i = 0; i < pool.size(); ++i) {
      float s = DotU8F32(codes.sq.data() + i * codes.sq_stride, cq.w.data(), dim);
      ivs.push_back(CertifiedInterval(cq, pool.norm(i), s));
    }
    std::vector<double> his;
    for (const DistanceInterval& iv : ivs) {
      his.push_back(iv.hi);
    }
    std::nth_element(his.begin(), his.begin() + (k - 1), his.end());
    double u = his[k - 1];
    for (const DistanceInterval& iv : ivs) {
      kept += iv.lo <= u ? 1 : 0;
    }
    scanned += ivs.size();
  }
  EXPECT_LT(static_cast<double>(kept), 0.05 * static_cast<double>(scanned))
      << kept << " of " << scanned << " rows survive pass 1";
}

// --- Exactness: mirror vs no mirror -------------------------------------------

struct IndexCase {
  RetrievalIndexOptions::Backend backend;
  size_t shards;
  size_t suffix;  // Rows added after the mirror was built.
};

std::string CaseName(const Corpus& c, const IndexCase& ic) {
  return c.name + (ic.backend == RetrievalIndexOptions::Backend::kFlat ? " flat" : " ivf") +
         " shards=" + std::to_string(ic.shards) + " suffix=" + std::to_string(ic.suffix);
}

// Builds the index over corpus rows (ids 3i + 1): the first n - suffix rows,
// then IVF training and (if `mirror`) the SQ mirror, then the rest — which
// IVF assigns to its trained lists, past every list's encoded prefix.
std::unique_ptr<VectorIndex> Build(const Corpus& c, const IndexCase& ic, bool mirror) {
  RetrievalIndexOptions opts;
  opts.backend = ic.backend;
  opts.shards = ic.shards;
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
      for (size_t shards : {size_t{1}, size_t{3}}) {
        for (size_t suffix : {size_t{0}, n / 5}) {
          IndexCase ic{backend, shards, suffix};
          auto plain = Build(c, ic, /*mirror=*/false);
          auto certified = Build(c, ic, /*mirror=*/true);
          RetrievalQuality fp32;
          std::vector<RetrievalQuality> quals(c.queries.size());
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
                auto got = certified->SearchBatch(c.queries, k, &pool, quals);
                ASSERT_EQ(got.size(), c.queries.size());
                for (size_t qi = 0; qi < c.queries.size(); ++qi) {
                  ExpectBitEqual(got[qi], want[qi],
                                 tat + " batch threads=" + std::to_string(threads) +
                                     " q=" + std::to_string(qi));
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(CertifiedScanTest, MutableIndexThroughSealCompactRetrainMatchesMirrorFreeBuild) {
  Corpus c = RandomUnit(kDim, 420, 0x3A7);
  RetrievalIndexOptions opts;
  opts.shards = 3;
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
    FlatL2Index ref(kDim, 1);  // Never mirrored.
    for (const auto& [id, v] : live) {
      ref.Add(id, v);
    }
    std::vector<RetrievalQuality> quals(c.queries.size());
    for (size_t k : {size_t{1}, size_t{5}, size_t{35}}) {
      auto got = index.SearchBatch(c.queries, k, &pool, quals);
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
  ASSERT_TRUE(std::equal(codes.sq.begin(), codes.sq.begin() + codes.sq_stride,
                         codes.sq.begin() + codes.sq_stride))
      << "precondition: rows b and a share their codes";

  // The approximate top-k (D~ with B = 0), re-scored exactly.
  double qnorm = SquaredNormBlocked(q.data(), dim);
  CertifiedQuery cq;
  BuildCertifiedQuery(sq, codes.sq_delta, q.data(), dim, qnorm, &cq);
  std::vector<std::pair<double, size_t>> approx;
  for (size_t i = 0; i < pool.size(); ++i) {
    float s = DotU8F32(codes.sq.data() + i * codes.sq_stride, cq.w.data(), dim);
    approx.emplace_back(pool.norm(i) + qnorm - 2.0 * (cq.qv + s), i);
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
    IndexCase ic{backend, 1, 0};
    auto plain = Build(c, ic, /*mirror=*/false);
    auto certified = Build(c, ic, /*mirror=*/true);
    std::vector<SearchHit> want = plain->Search(q, k, RetrievalQuality{});
    ASSERT_EQ(want.size(), 1u);
    EXPECT_EQ(want[0].id, 4) << "row a (index 1) is exactly closest";
    EXPECT_NE(zero_bound_winner, want[0].id) << "a zero bound must answer wrongly here";
    ExpectBitEqual(certified->Search(q, k, RetrievalQuality{}), want, CaseName(c, ic));
    ExpectBitEqual(certified->SearchBatch({q}, k, nullptr, {RetrievalQuality{}})[0], want,
                   CaseName(c, ic) + " batch");
  }
}

}  // namespace
}  // namespace metis
