// Mutation-parity property tests for the live-mutation serving index
// (src/vectordb/mutable_index.h).
//
// The contract under test: at ANY point in a random interleaving of
// Insert / Delete / seal / compact / retrain, search results — ids, order,
// AND distances — are bit-equal to an index freshly built from the live
// document set, across threads {1,4} x {flat,IVF} x {fixed,adaptive
// nprobe}. Specifically:
//
//   - flat backend: bit-equal to a fresh FlatL2Index over the live rows in
//     insertion order, at every checkpoint;
//   - IVF backend, mid-stream: bit-equal to that same flat reference under a
//     full probe budget (nprobe >= nlist scans every list — exact, and
//     duplicates share a list so (distance, order) ties agree);
//   - IVF backend, after RetrainBase: bit-equal to a fresh IvfL2Index
//     (same nlist/nprobe/seed) trained on the live rows, at fixed AND
//     adaptive probe qualities — identical training input means identical
//     centroids, lists, and probe schedules;
//   - filtered reads (SearchOrdered with a sorted exclusion set, the hybrid
//     metadata-filter path): ids and distances bit-equal to the fresh flat
//     reference's SearchOrdered with the same set, at every checkpoint.
//
// The op stream includes delete-then-reinsert (same vector, fresh id) and
// exact duplicate vectors, both of which stress the (distance, candidate
// order) tie-break.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/vectordb/mutable_index.h"
#include "src/vectordb/vectordb.h"

namespace metis {
namespace {

constexpr size_t kDim = 16;
constexpr size_t kTopK = 10;

struct ParityCase {
  size_t threads;
  RetrievalIndexOptions::Backend backend;
  bool adaptive;
};

std::vector<ParityCase> Grid() {
  std::vector<ParityCase> cases;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (auto backend :
         {RetrievalIndexOptions::Backend::kFlat, RetrievalIndexOptions::Backend::kIvf}) {
      for (bool adaptive : {false, true}) {
        cases.push_back(ParityCase{threads, backend, adaptive});
      }
    }
  }
  return cases;
}

Embedding RandomVec(Rng& rng) {
  Embedding v(kDim);
  for (float& x : v) {
    x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return v;
}

// Ids and distances bit-equal. Filtered reads compare OrderedHits, whose
// candidate orders differ by construction (log positions vs the reference's
// insertion order) and are not compared.
template <typename Hit>
void ExpectBitEqual(const std::vector<Hit>& got, const std::vector<Hit>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    // Exact float equality: distances must be bit-identical, not just close.
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " rank " << i;
  }
}

// The model the mutable index must match: the live (id, vector) set in
// insertion order.
struct LiveSet {
  std::vector<std::pair<ChunkId, Embedding>> rows;

  void Insert(ChunkId id, Embedding v) { rows.emplace_back(id, std::move(v)); }
  void Delete(ChunkId id) {
    for (auto it = rows.begin(); it != rows.end(); ++it) {
      if (it->first == id) {
        rows.erase(it);
        return;
      }
    }
    FAIL() << "model delete of unknown id " << id;
  }

  FlatL2Index BuildFlat() const {
    FlatL2Index ref(kDim);
    for (const auto& [id, v] : rows) {
      ref.Add(id, v);
    }
    return ref;
  }
  std::unique_ptr<IvfL2Index> BuildIvf(const RetrievalIndexOptions& opt) const {
    auto ref = std::make_unique<IvfL2Index>(kDim, opt.nlist, opt.nprobe, opt.train_seed);
    ref->set_adaptive_probe(opt.adaptive);
    for (const auto& [id, v] : rows) {
      ref->Add(id, v);
    }
    if (!rows.empty()) {
      ref->Train();
    }
    return ref;
  }
};

class MutableIndexParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(MutableIndexParityTest, RandomInterleavingsMatchFreshBuild) {
  const ParityCase& pc = GetParam();
  RetrievalIndexOptions opt;
  opt.backend = pc.backend;
  opt.nlist = 8;
  opt.nprobe = 3;
  opt.adaptive.enabled = pc.adaptive;
  opt.adaptive.min_probes = 1;
  opt.adaptive.max_probes = 4;
  opt.train_seed = 17;
  opt.mutable_index = true;
  opt.mutation.memtable_rows = 7;    // Frequent automatic seals.
  opt.mutation.compact_segments = 3;  // Frequent automatic compactions.
  opt.mutation.retrain_delta_fraction = 0.6;
  opt.mutation.max_rows = 4096;

  MutableIndex index(kDim, opt);
  Rng rng(0x5EED0 + 31 + pc.threads * 7 + (pc.adaptive ? 1 : 0) +
          (pc.backend == RetrievalIndexOptions::Backend::kIvf ? 1000 : 0));
  ThreadPool pool(pc.threads);
  ThreadPool* read_pool = pc.threads > 1 ? &pool : nullptr;

  // Initial corpus (bulk load + finalize), with some exact duplicates.
  LiveSet model;
  std::vector<Embedding> recycled;  // Vectors of deleted rows, for reinsertion.
  ChunkId next_id = 0;
  for (int i = 0; i < 60; ++i) {
    Embedding v = (i > 0 && rng.Bernoulli(0.1)) ? model.rows[rng.Index(model.rows.size())].second
                                                : RandomVec(rng);
    index.Add(next_id, v);
    model.Insert(next_id, std::move(v));
    ++next_id;
  }
  index.Finalize();

  // Full probe budget: scans every inverted list, so an IVF sweep is exact
  // and comparable to the flat reference mid-stream.
  RetrievalQuality full_probe;
  full_probe.mode = RetrievalQuality::ProbeMode::kFixed;
  full_probe.nprobe = 1u << 20;
  // Draws the checkpoints' exclusion sets; separate from `rng` so the op
  // stream does not depend on them.
  Rng filter_rng(0xF117E5 + 31 + pc.threads * 7 + (pc.adaptive ? 1 : 0));

  auto checkpoint = [&](const char* when) {
    FlatL2Index ref = model.BuildFlat();
    std::vector<Embedding> queries;
    for (int qi = 0; qi < 4; ++qi) {
      queries.push_back(RandomVec(rng));
    }
    if (!model.rows.empty()) {
      // A query sitting exactly on a live row exercises zero-distance ties.
      queries.push_back(model.rows[rng.Index(model.rows.size())].second);
    }
    RetrievalQuality quality =
        pc.backend == RetrievalIndexOptions::Backend::kIvf ? full_probe : RetrievalQuality{};
    // The checkpoint's queries also read concurrently, split across the pool.
    std::vector<std::vector<SearchHit>> pooled(queries.size());
    ParallelFor(read_pool, queries.size(), [&](size_t begin, size_t end) {
      for (size_t qi = begin; qi < end; ++qi) {
        pooled[qi] = index.Search(queries[qi], kTopK, quality);
      }
    });
    // A sorted exclusion set over every id issued so far, live or deleted.
    std::vector<ChunkId> excluded;
    for (ChunkId id = 0; id < next_id; ++id) {
      if (filter_rng.Bernoulli(0.3)) {
        excluded.push_back(id);
      }
    }
    IdFilter exclude{excluded.data(), excluded.data() + excluded.size()};
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      std::vector<SearchHit> want = ref.Search(queries[qi], kTopK, RetrievalQuality{});
      ExpectBitEqual(index.Search(queries[qi], kTopK, quality), want, when);
      ExpectBitEqual(pooled[qi], want, when);
      ExpectBitEqual(index.SearchOrdered(queries[qi], kTopK, quality, exclude),
                     ref.SearchOrdered(queries[qi], kTopK, RetrievalQuality{}, exclude), when);
    }
  };

  checkpoint("after finalize");

  // Random op stream with interleaved checkpoints.
  for (int op = 0; op < 220; ++op) {
    double r = rng.NextDouble();
    if (r < 0.45) {
      Embedding v;
      if (!recycled.empty() && rng.Bernoulli(0.3)) {
        v = recycled[rng.Index(recycled.size())];  // Delete-then-reinsert.
      } else if (!model.rows.empty() && rng.Bernoulli(0.1)) {
        v = model.rows[rng.Index(model.rows.size())].second;  // Duplicate.
      } else {
        v = RandomVec(rng);
      }
      index.Insert(next_id, v);
      model.Insert(next_id, std::move(v));
      ++next_id;
    } else if (r < 0.62 && !model.rows.empty()) {
      size_t pick = rng.Index(model.rows.size());
      ChunkId id = model.rows[pick].first;
      recycled.push_back(model.rows[pick].second);
      ASSERT_TRUE(index.Delete(id));
      model.Delete(id);
    } else if (r < 0.70) {
      index.SealMemtable();
    } else if (r < 0.76) {
      index.CompactSegments();
    } else if (r < 0.80) {
      index.RetrainBase();
    } else {
      checkpoint("mid-stream");
    }
  }
  checkpoint("after op stream");

  EXPECT_EQ(index.size(), model.rows.size());
  MutableIndexStats stats = index.stats();
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.deletes, 0u);
  EXPECT_GT(stats.seals, 0u);

  // IVF: after a full retrain the base IS a fresh build over the live set —
  // results must be bit-equal to an independently trained IvfL2Index at any
  // probe quality, and probe accounting must agree too.
  if (pc.backend == RetrievalIndexOptions::Backend::kIvf && !model.rows.empty()) {
    index.RetrainBase();
    std::unique_ptr<IvfL2Index> ref = model.BuildIvf(opt);
    std::vector<RetrievalQuality> qualities;
    qualities.push_back(RetrievalQuality{});  // Index default (fixed or adaptive).
    RetrievalQuality fixed;
    fixed.mode = RetrievalQuality::ProbeMode::kFixed;
    fixed.nprobe = 2;
    qualities.push_back(fixed);
    RetrievalQuality adaptive;
    adaptive.mode = RetrievalQuality::ProbeMode::kAdaptive;
    adaptive.nprobe = 4;
    qualities.push_back(adaptive);
    for (const RetrievalQuality& q : qualities) {
      for (int qi = 0; qi < 4; ++qi) {
        Embedding query = RandomVec(rng);
        ExpectBitEqual(index.Search(query, kTopK, q), ref->Search(query, kTopK, q),
                       "post-retrain vs fresh IVF");
      }
    }
    ASSERT_NE(index.base_ivf(), nullptr);
    EXPECT_EQ(index.base_ivf()->nlist(), ref->nlist());
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, MutableIndexParityTest, ::testing::ValuesIn(Grid()),
                         [](const ::testing::TestParamInfo<ParityCase>& info) {
                           const ParityCase& pc = info.param;
                           std::string name =
                               pc.backend == RetrievalIndexOptions::Backend::kIvf ? "ivf" : "flat";
                           name += "_t" + std::to_string(pc.threads);
                           name += pc.adaptive ? "_adaptive" : "_fixed";
                           return name;
                         });

// Sealing is a pure representation change: results before and after an
// explicit seal/compact must be identical (not just parity with a fresh
// build — literally the same epoch contents).
TEST(MutableIndexLifecycleTest, SealAndCompactDoNotChangeResults) {
  RetrievalIndexOptions opt;
  opt.mutable_index = true;
  opt.mutation.memtable_rows = 1000;      // No automatic seals.
  opt.mutation.compact_segments = 1000;   // No automatic compactions.
  opt.mutation.retrain_delta_fraction = 1e9;
  MutableIndex index(kDim, opt);
  Rng rng(99);
  for (ChunkId id = 0; id < 20; ++id) {
    index.Add(id, RandomVec(rng));
  }
  index.Finalize();
  for (ChunkId id = 20; id < 40; ++id) {
    index.Insert(id, RandomVec(rng));
  }
  ASSERT_TRUE(index.Delete(25));
  ASSERT_TRUE(index.Delete(3));

  Embedding q = RandomVec(rng);
  std::vector<SearchHit> before = index.Search(q, kTopK, RetrievalQuality{});
  index.SealMemtable();
  ExpectBitEqual(index.Search(q, kTopK, RetrievalQuality{}), before, "after seal");
  index.SealMemtable();  // Empty memtable: no-op.
  index.CompactSegments();
  ExpectBitEqual(index.Search(q, kTopK, RetrievalQuality{}), before, "after compact");
  MutableIndexStats stats = index.stats();
  EXPECT_EQ(stats.seals, 1u);
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.open_segments, 1u);
  EXPECT_EQ(stats.tombstones, 2u);
  // The compacted segment dropped the dead rows it covered.
  EXPECT_EQ(stats.live_rows, 38u);
}

struct Gauges {
  uint64_t seals, compactions, retrains;
  size_t open_segments, memtable_rows, base_rows, live_rows, tombstones;
};

void ExpectGauges(const MutableIndex& index, const Gauges& want, const char* step) {
  MutableIndexStats s = index.stats();
  EXPECT_EQ(s.seals, want.seals) << step;
  EXPECT_EQ(s.compactions, want.compactions) << step;
  EXPECT_EQ(s.retrains, want.retrains) << step;
  EXPECT_EQ(s.open_segments, want.open_segments) << step;
  EXPECT_EQ(s.memtable_rows, want.memtable_rows) << step;
  EXPECT_EQ(s.base_rows, want.base_rows) << step;
  EXPECT_EQ(s.live_rows, want.live_rows) << step;
  EXPECT_EQ(s.tombstones, want.tombstones) << step;
}

// One fixed Insert/Delete/seal/compact/retrain sequence, with the gauges
// pinned after every step: automatic seals and compactions, manual ones, a
// manual retrain and one that an Insert triggers.
TEST(MutableIndexLifecycleTest, StatsArePinned) {
  for (auto backend :
       {RetrievalIndexOptions::Backend::kFlat, RetrievalIndexOptions::Backend::kIvf}) {
    SCOPED_TRACE(backend == RetrievalIndexOptions::Backend::kIvf ? "ivf" : "flat");
    RetrievalIndexOptions opt;
    opt.backend = backend;
    opt.nlist = 4;
    opt.mutable_index = true;
    opt.mutation.memtable_rows = 4;
    opt.mutation.compact_segments = 3;
    opt.mutation.retrain_delta_fraction = 0.5;
    opt.mutation.max_rows = 1024;
    MutableIndex index(kDim, opt);
    Rng rng(2024);
    ChunkId next_id = 0;
    auto insert = [&](int n) {
      for (int i = 0; i < n; ++i) {
        index.Insert(next_id++, RandomVec(rng));
      }
    };
    insert(24);
    index.Finalize();
    ExpectGauges(index, {0, 0, 0, 0, 0, 24, 24, 0}, "finalize");

    insert(3);  // Ids 24..26, below the seal threshold.
    ASSERT_TRUE(index.Delete(0));
    ASSERT_TRUE(index.Delete(5));
    ASSERT_TRUE(index.Delete(25));
    ExpectGauges(index, {0, 0, 0, 0, 3, 22, 24, 3}, "inserts and deletes");

    index.SealMemtable();
    ExpectGauges(index, {1, 0, 0, 1, 0, 22, 24, 3}, "manual seal");

    insert(4);  // Automatic seal: 2 segments, 6 live delta rows.
    ExpectGauges(index, {2, 0, 0, 2, 0, 22, 28, 3}, "automatic seal");

    insert(4);  // Third segment: automatic compaction.
    ExpectGauges(index, {3, 1, 0, 1, 0, 22, 32, 3}, "automatic compaction");

    ASSERT_TRUE(index.Delete(30));
    insert(2);
    index.SealMemtable();
    index.CompactSegments();
    ExpectGauges(index, {4, 2, 0, 1, 0, 22, 33, 4}, "manual compaction");

    insert(1);
    index.RetrainBase();
    ExpectGauges(index, {4, 2, 1, 0, 0, 34, 34, 4}, "manual retrain");

    ASSERT_TRUE(index.Delete(1));
    // Five automatic seals; the third compacts, and the fifth retrains: 20
    // live delta rows exceed 0.5 * 33 live base rows.
    insert(20);
    ExpectGauges(index, {9, 3, 2, 0, 0, 53, 53, 5}, "insert-triggered retrain");

    insert(1);
    ExpectGauges(index, {9, 3, 2, 0, 1, 53, 54, 5}, "memtable after retrain");
  }
}

// Deleting every row leaves a searchable-but-empty index; reinserting under
// fresh ids revives it.
TEST(MutableIndexLifecycleTest, DeleteAllThenReinsert) {
  RetrievalIndexOptions opt;
  opt.mutable_index = true;
  MutableIndex index(kDim, opt);
  Rng rng(7);
  std::vector<Embedding> vecs;
  for (ChunkId id = 0; id < 10; ++id) {
    vecs.push_back(RandomVec(rng));
    index.Add(id, vecs.back());
  }
  index.Finalize();
  for (ChunkId id = 0; id < 10; ++id) {
    ASSERT_TRUE(index.Delete(id));
    EXPECT_FALSE(index.Delete(id));  // Double delete is reported, not fatal.
  }
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.Search(vecs[0], kTopK, RetrievalQuality{}).empty());
  // Reinsert the same vectors under fresh ids.
  for (ChunkId id = 10; id < 20; ++id) {
    index.Insert(id, vecs[static_cast<size_t>(id - 10)]);
  }
  EXPECT_EQ(index.size(), 10u);
  std::vector<SearchHit> hits = index.Search(vecs[0], 1, RetrievalQuality{});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 10);
  EXPECT_EQ(hits[0].distance, 0.0f);
}

}  // namespace
}  // namespace metis
