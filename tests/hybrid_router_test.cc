// Hybrid retrieval layer: router weight tables, deterministic weighted RRF
// fusion, weight-0 backend elision, metadata-filter push-down, BM25 lifecycle
// determinism, and hybrid-off bit-parity with the dense-only stack
// (src/core/hybrid_router.h, src/vectordb/lexical_index.h, vectordb.cc).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/hybrid_router.h"
#include "src/text/tokenizer.h"
#include "src/vectordb/lexical_index.h"
#include "src/vectordb/vectordb.h"

namespace metis {
namespace {

// Deterministic synthetic corpus: no RNG, just index arithmetic. Texts draw
// from a small pool so term frequencies and document frequencies vary (BM25
// has work to do) and some chunks collide exactly (tie-breaks are exercised).
std::vector<Chunk> MakeCorpus(int n) {
  const char* pool[] = {"kimbrough", "stadium",  "county",  "randall", "quarterly",
                        "revenue",   "semicon",  "merger",  "treaty",  "glacier",
                        "harvest",   "pipeline", "voltage", "census",  "orbit"};
  const int pool_n = 15;
  std::vector<Chunk> chunks;
  for (int i = 0; i < n; ++i) {
    Chunk c;
    c.doc_id = i / 2;  // Two chunks per document.
    std::string text;
    for (int w = 0; w < 6; ++w) {
      int idx = (i * (w + 3) + w * w) % pool_n;
      // Repeat some words so tf varies by chunk.
      int reps = 1 + (i + w) % 3;
      for (int r = 0; r < reps; ++r) {
        if (!text.empty()) text += ' ';
        text += pool[idx];
      }
    }
    c.text = text;
    c.token_count = static_cast<int32_t>(CountTokens(text));
    c.source = c.doc_id % 3;
    c.time_bucket = c.doc_id % 4;
    c.section = i % 2;
    chunks.push_back(std::move(c));
  }
  return chunks;
}

std::vector<std::string> TestQueries() {
  return {"kimbrough stadium county",  "quarterly revenue semicon merger",
          "treaty glacier harvest",    "pipeline voltage census orbit",
          "randall county stadium",    "glacier orbit merger",
          "census harvest quarterly",  "voltage treaty kimbrough"};
}

std::unique_ptr<VectorDatabase> MakeDb(size_t shards, bool lexical, ThreadPool* pool = nullptr) {
  RetrievalIndexOptions options;
  options.shards = shards;
  options.lexical = lexical;
  auto db = std::make_unique<VectorDatabase>(
      EmbeddingModel(GetEmbeddingModel("cohere-embed-v3-sim")),
      DatabaseMetadata{"hybrid test corpus", 64, "test"}, options);
  db->AddChunks(MakeCorpus(150), pool);
  db->FinalizeIndex(pool);
  return db;
}

void ExpectSameHits(const std::vector<SearchHit>& got, const std::vector<SearchHit>& want,
                    const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << context << " rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << context << " rank " << i;
  }
}

// --- Router unit mechanics --------------------------------------------------

QueryProfile ProfileFor(QueryTaskType type, int time_bucket = -1) {
  QueryProfile p;
  p.task_type = type;
  p.time_bucket = time_bucket;
  return p;
}

TEST(HybridRouterTest, DisabledRouterReturnsBaseUntouched) {
  HybridRouter router(HybridRouterOptions{});  // enabled = false.
  RetrievalQuality base;
  base.mode = RetrievalQuality::ProbeMode::kFixed;
  base.nprobe = 7;
  for (QueryTaskType t : {QueryTaskType::kFactual, QueryTaskType::kSemantic,
                          QueryTaskType::kTemporal, QueryTaskType::kComparative}) {
    RetrievalQuality routed = router.Route(ProfileFor(t, /*time_bucket=*/2), base);
    EXPECT_FALSE(routed.hybrid);
    EXPECT_FALSE(routed.filter.active());
    EXPECT_EQ(routed.mode, RetrievalQuality::ProbeMode::kFixed);
    EXPECT_EQ(routed.nprobe, 7u);
  }
}

TEST(HybridRouterTest, EnabledRouterAppliesWeightTableAndTemporalFilter) {
  HybridRouterOptions options;
  options.enabled = true;
  HybridRouter router(options);

  // Factual default: lexical-only.
  RetrievalQuality factual = router.Route(ProfileFor(QueryTaskType::kFactual), {});
  EXPECT_TRUE(factual.hybrid);
  EXPECT_FLOAT_EQ(factual.dense_weight, 0.0f);
  EXPECT_FLOAT_EQ(factual.lexical_weight, 1.0f);

  // Semantic default: pure dense — the base quality VERBATIM (fast path).
  RetrievalQuality base;
  base.nprobe = 5;
  RetrievalQuality semantic = router.Route(ProfileFor(QueryTaskType::kSemantic), base);
  EXPECT_FALSE(semantic.hybrid);
  EXPECT_EQ(semantic.nprobe, 5u);

  // Temporal with a parsed bucket: fused + time filter.
  RetrievalQuality temporal = router.Route(ProfileFor(QueryTaskType::kTemporal, 3), {});
  EXPECT_TRUE(temporal.hybrid);
  EXPECT_FLOAT_EQ(temporal.dense_weight, 0.5f);
  EXPECT_FLOAT_EQ(temporal.lexical_weight, 0.5f);
  EXPECT_EQ(temporal.filter.time_bucket, 3);

  // Temporal without a bucket cue: fused, no filter.
  RetrievalQuality no_bucket = router.Route(ProfileFor(QueryTaskType::kTemporal, -1), {});
  EXPECT_TRUE(no_bucket.hybrid);
  EXPECT_FALSE(no_bucket.filter.active());

  // Comparative default is lexical-leaning.
  RetrievalQuality cmp = router.Route(ProfileFor(QueryTaskType::kComparative), {});
  EXPECT_TRUE(cmp.hybrid);
  EXPECT_FLOAT_EQ(cmp.dense_weight, 0.4f);
  EXPECT_FLOAT_EQ(cmp.lexical_weight, 0.6f);
}

TEST(HybridRouterTest, ShedCollapsesToCheapestSingleBackendKeepingFilter) {
  RetrievalQuality fused;
  fused.hybrid = true;
  fused.dense_weight = 0.5f;
  fused.lexical_weight = 0.5f;
  fused.filter.time_bucket = 2;
  RetrievalQuality shed = HybridRouter::ShedToSingleBackend(fused);
  EXPECT_FLOAT_EQ(shed.dense_weight, 0.0f);  // Ties go lexical (cheaper scan).
  EXPECT_FLOAT_EQ(shed.lexical_weight, 0.5f);
  EXPECT_EQ(shed.filter.time_bucket, 2);  // Filters only shrink scans: kept.

  RetrievalQuality dense_heavy;
  dense_heavy.hybrid = true;
  dense_heavy.dense_weight = 0.7f;
  dense_heavy.lexical_weight = 0.3f;
  EXPECT_FLOAT_EQ(HybridRouter::ShedToSingleBackend(dense_heavy).lexical_weight, 0.0f);

  // Already single-backend or non-hybrid: untouched.
  RetrievalQuality single;
  single.hybrid = true;
  single.dense_weight = 0.0f;
  single.lexical_weight = 1.0f;
  EXPECT_FLOAT_EQ(HybridRouter::ShedToSingleBackend(single).lexical_weight, 1.0f);
  RetrievalQuality plain;
  EXPECT_FALSE(HybridRouter::ShedToSingleBackend(plain).hybrid);
}

TEST(HybridRouterTest, TaskTypeClassifierReadsKeywordCues) {
  int bucket = -1;
  EXPECT_EQ(ClassifyTaskType(Tokenize("when did the treaty take effect in period3"), &bucket),
            QueryTaskType::kTemporal);
  EXPECT_EQ(bucket, 3);
  EXPECT_EQ(ClassifyTaskType(Tokenize("compare the glacier and the orbit")),
            QueryTaskType::kComparative);
  EXPECT_EQ(ClassifyTaskType(Tokenize("why does the pipeline leak")),
            QueryTaskType::kSemantic);
  EXPECT_EQ(ClassifyTaskType(Tokenize("kimbrough stadium county")),
            QueryTaskType::kFactual);
}

// --- Hybrid-off parity ------------------------------------------------------

TEST(HybridParityTest, HybridOffIsBitIdenticalToLexiclessBuild) {
  // A database that BUILT a lexical index but never routes to it must return
  // byte-for-byte what a dense-only build returns, and must never touch the
  // lexical structures.
  auto with_lex = MakeDb(/*shards=*/2, /*lexical=*/true);
  auto dense_only = MakeDb(/*shards=*/2, /*lexical=*/false);
  ASSERT_NE(with_lex->lexical_index(), nullptr);
  ASSERT_EQ(dense_only->lexical_index(), nullptr);

  for (const std::string& q : TestQueries()) {
    ExpectSameHits(with_lex->RetrieveWithDistances(q, 10, {}),
                   dense_only->RetrieveWithDistances(q, 10, {}), "query '" + q + "'");
  }
  EXPECT_EQ(with_lex->hybrid_stats().dense_searches, 0u);
  EXPECT_EQ(with_lex->hybrid_stats().lexical_searches, 0u);
  EXPECT_EQ(with_lex->hybrid_stats().fused_queries, 0u);
  EXPECT_EQ(with_lex->lexical_index()->stats().searches, 0u);
}

TEST(HybridParityTest, WeightZeroBackendIsNeverScanned) {
  auto db = MakeDb(/*shards=*/2, /*lexical=*/true);

  // Lexical-only route: the dense index is never searched.
  RetrievalQuality lex_only;
  lex_only.hybrid = true;
  lex_only.dense_weight = 0.0f;
  lex_only.lexical_weight = 1.0f;
  for (const std::string& q : TestQueries()) {
    ASSERT_FALSE(db->RetrieveWithDistances(q, 10, lex_only).empty());
  }
  EXPECT_EQ(db->hybrid_stats().dense_searches, 0u);
  EXPECT_EQ(db->hybrid_stats().lexical_searches, TestQueries().size());
  EXPECT_EQ(db->hybrid_stats().fused_queries, 0u);

  // Dense-only route (hybrid flag on, lexical weight 0): the lexical index is
  // never searched.
  db->ResetHybridStats();
  db->lexical_index()->ResetSearchStats();
  RetrievalQuality dense_route;
  dense_route.hybrid = true;
  dense_route.dense_weight = 1.0f;
  dense_route.lexical_weight = 0.0f;
  for (const std::string& q : TestQueries()) {
    ASSERT_FALSE(db->RetrieveWithDistances(q, 10, dense_route).empty());
  }
  EXPECT_EQ(db->lexical_index()->stats().searches, 0u);
  EXPECT_EQ(db->hybrid_stats().lexical_searches, 0u);
  EXPECT_EQ(db->hybrid_stats().fused_queries, 0u);
}

// --- Fusion determinism across shard x thread combinations ------------------

TEST(HybridFusionTest, FusedRankingBitIdenticalAcrossShardsAndThreads) {
  // Baseline: 1 shard, no pool. Every other combination must reproduce the
  // fused ranking (and the raw RRF scores) bit-for-bit.
  auto baseline = MakeDb(/*shards=*/1, /*lexical=*/true);

  RetrievalQuality fused;
  fused.hybrid = true;
  fused.dense_weight = 0.5f;
  fused.lexical_weight = 0.5f;

  RetrievalQuality filtered = fused;
  filtered.filter.time_bucket = 1;

  std::vector<std::vector<SearchHit>> want_fused;
  std::vector<std::vector<SearchHit>> want_filtered;
  for (const std::string& q : TestQueries()) {
    want_fused.push_back(baseline->RetrieveWithDistances(q, 10, fused));
    want_filtered.push_back(baseline->RetrieveWithDistances(q, 10, filtered));
  }

  for (size_t shards : {size_t{1}, size_t{4}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ThreadPool pool(threads);
      auto db = MakeDb(shards, /*lexical=*/true, &pool);
      db->set_search_pool(&pool);
      std::string context =
          "shards=" + std::to_string(shards) + " threads=" + std::to_string(threads);
      const std::vector<std::string> queries = TestQueries();
      for (size_t i = 0; i < queries.size(); ++i) {
        ExpectSameHits(db->RetrieveWithDistances(queries[i], 10, fused), want_fused[i],
                       context + " fused q" + std::to_string(i));
        ExpectSameHits(db->RetrieveWithDistances(queries[i], 10, filtered), want_filtered[i],
                       context + " filtered q" + std::to_string(i));
      }
    }
  }
}

// --- Metadata-filter push-down ----------------------------------------------

TEST(HybridFilterTest, FilterExcludesNonMatchingChunksFromBothLegs) {
  auto db = MakeDb(/*shards=*/2, /*lexical=*/true);
  size_t matching = 0;
  for (size_t i = 0; i < db->num_chunks(); ++i) {
    matching += db->chunk(static_cast<ChunkId>(i)).time_bucket == 2 ? 1 : 0;
  }
  ASSERT_GT(matching, 10u);

  RetrievalQuality quality;
  quality.hybrid = true;
  quality.dense_weight = 0.5f;
  quality.lexical_weight = 0.5f;
  quality.filter.time_bucket = 2;
  for (const std::string& q : TestQueries()) {
    std::vector<SearchHit> hits = db->RetrieveWithDistances(q, 10, quality);
    EXPECT_EQ(hits.size(), std::min<size_t>(10, matching));
    for (const SearchHit& h : hits) {
      EXPECT_EQ(db->chunk(h.id).time_bucket, 2) << "query '" << q << "'";
    }
  }

  // Filter-only (no hybrid flag): the dense leg alone honors the push-down.
  RetrievalQuality dense_filtered;
  dense_filtered.filter.source = 1;
  for (const SearchHit& h : db->RetrieveWithDistances(TestQueries()[0], 10, dense_filtered)) {
    EXPECT_EQ(db->chunk(h.id).source, 1);
  }
}

// --- BM25 lifecycle determinism ---------------------------------------------

TEST(LexicalLifecycleTest, SealedCompactedIndexMatchesFreshBuildOverLiveSet) {
  // A tiny memtable forces seals and compactions mid-stream; removals mask
  // sealed postings and erase memtable postings. Scores must still be exact
  // live-set statistics: bit-identical to a fresh single-shard build over the
  // surviving docs in the same relative order.
  std::vector<Chunk> corpus = MakeCorpus(90);
  LexicalIndex aged(/*num_shards=*/4, /*memtable_rows=*/4, /*compact_segments=*/2);
  for (const Chunk& c : corpus) {
    aged.Add(static_cast<ChunkId>(&c - corpus.data()), c.text);
  }
  for (int i = 0; i < 90; i += 3) {
    EXPECT_TRUE(aged.Remove(i));
  }
  EXPECT_FALSE(aged.Remove(0));  // Already dead.
  EXPECT_GT(aged.stats().seals, 0u);
  EXPECT_EQ(aged.num_docs(), 60u);

  LexicalIndex fresh(/*num_shards=*/1, /*memtable_rows=*/1024, /*compact_segments=*/8);
  for (int i = 0; i < 90; ++i) {
    if (i % 3 != 0) {
      fresh.Add(i, corpus[static_cast<size_t>(i)].text);
    }
  }

  ThreadPool pool(4);
  for (const std::string& q : TestQueries()) {
    std::vector<SearchHit> want = fresh.Search(q, 15);
    ExpectSameHits(aged.Search(q, 15), want, "aged vs fresh, query '" + q + "'");
    ExpectSameHits(aged.Search(q, 15, {}, &pool), want, "aged pooled, query '" + q + "'");
  }
  // Removed docs never resurface even at exhaustive depth.
  for (const SearchHit& h : aged.Search("kimbrough stadium county randall", 90)) {
    EXPECT_NE(h.id % 3, 0);
  }
}

}  // namespace
}  // namespace metis
