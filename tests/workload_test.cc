// Unit tests for the dataset generators: structure, retrievability, Table-1
// statistics, arrival processes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/strings.h"
#include "src/text/tokenizer.h"
#include "src/workload/dataset.h"

namespace metis {
namespace {

std::unique_ptr<Dataset> Gen(const char* name, int n = 60, uint64_t seed = 7) {
  DatasetGenerator gen(GetDatasetProfile(name), seed);
  return gen.Generate(n, "cohere-embed-v3-sim");
}

TEST(DatasetProfilesTest, FourDatasetsExist) {
  EXPECT_EQ(AllDatasetProfiles().size(), 4u);
  EXPECT_EQ(GetDatasetProfile("squad").chunk_tokens, 256);
  EXPECT_EQ(GetDatasetProfile("kg_rag_finsec").chunk_tokens, 1024);
}

TEST(DatasetProfilesDeathTest, UnknownAborts) {
  EXPECT_DEATH(GetDatasetProfile("nope"), "CHECK failed");
}

TEST(DatasetGeneratorTest, QueryCountAndIds) {
  auto ds = Gen("musique");
  ASSERT_EQ(ds->queries().size(), 60u);
  for (size_t i = 0; i < ds->queries().size(); ++i) {
    EXPECT_EQ(ds->queries()[i].id, static_cast<int32_t>(i));
  }
}

TEST(DatasetGeneratorTest, DeterministicForSeed) {
  auto a = Gen("squad", 20, 5);
  auto b = Gen("squad", 20, 5);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(a->queries()[i].text, b->queries()[i].text);
    EXPECT_EQ(a->queries()[i].gold_answer_tokens, b->queries()[i].gold_answer_tokens);
  }
  EXPECT_NE(Gen("squad", 20, 6)->queries()[0].text, a->queries()[0].text);
}

TEST(DatasetGeneratorTest, GoldFactsLiveInChunks) {
  auto ds = Gen("musique");
  for (const RagQuery& q : ds->queries()) {
    EXPECT_EQ(static_cast<int>(q.gold_fact_ids.size()), q.num_facts);
    for (int32_t fid : q.gold_fact_ids) {
      const Fact& f = ds->fact(fid);
      EXPECT_TRUE(f.gold);
      EXPECT_EQ(f.query_id, q.id);
      ASSERT_GE(f.chunk_id, 0);
      const Chunk& chunk = ds->db().chunk(f.chunk_id);
      // The fact is registered on its chunk and its sentence is embedded in
      // the chunk text at the recorded offset.
      bool registered = false;
      for (int32_t cf : chunk.fact_ids) {
        registered = registered || cf == fid;
      }
      EXPECT_TRUE(registered);
      EXPECT_NE(chunk.text.find(f.sentence), std::string::npos);
    }
  }
}

TEST(DatasetGeneratorTest, ChunksHaveExactTokenCounts) {
  auto ds = Gen("kg_rag_finsec", 20);
  for (size_t c = 0; c < ds->db().num_chunks(); ++c) {
    const Chunk& chunk = ds->db().chunk(static_cast<ChunkId>(c));
    EXPECT_EQ(chunk.token_count, 1024);
    EXPECT_EQ(CountTokens(chunk.text), 1024u);
  }
}

TEST(DatasetGeneratorTest, GoldAnswerContainsAllFactTokens) {
  auto ds = Gen("qmsum", 30);
  for (const RagQuery& q : ds->queries()) {
    std::unordered_set<std::string> gold(q.gold_answer_tokens.begin(),
                                         q.gold_answer_tokens.end());
    for (int32_t fid : q.gold_fact_ids) {
      for (const auto& t : ds->fact(fid).answer_tokens) {
        EXPECT_TRUE(gold.count(t)) << "missing " << t;
      }
    }
    if (q.requires_joint) {
      EXPECT_FALSE(q.conclusion_tokens.empty());
    }
  }
}

TEST(DatasetGeneratorTest, QueryTextCarriesEntityAnchors) {
  auto ds = Gen("musique", 30);
  for (const RagQuery& q : ds->queries()) {
    if (q.underspecified) {
      continue;  // Deliberately omits most anchors.
    }
    auto tokens = Tokenize(q.text);
    std::unordered_set<std::string> set(tokens.begin(), tokens.end());
    for (int32_t fid : q.gold_fact_ids) {
      int matched = 0;
      for (const auto& e : ds->fact(fid).entity_words) {
        matched += set.count(e) ? 1 : 0;
      }
      EXPECT_GT(matched, 0) << q.text;
    }
  }
}

TEST(DatasetGeneratorTest, RetrievalFindsGoldChunks) {
  auto ds = Gen("musique", 60);
  double covered = 0, total = 0;
  for (const RagQuery& q : ds->queries()) {
    auto ids = ds->db().Retrieve(q.text, static_cast<size_t>(3 * q.num_facts));
    std::unordered_set<ChunkId> set(ids.begin(), ids.end());
    for (int32_t fid : q.gold_fact_ids) {
      covered += set.count(ds->fact(fid).chunk_id) ? 1 : 0;
      total += 1;
    }
  }
  // Good but deliberately imperfect: the 1-3x over-fetch rule exists because
  // hard negatives outrank some golds.
  EXPECT_GT(covered / total, 0.80);
  EXPECT_LT(covered / total, 1.00);
}

TEST(DatasetGeneratorTest, EveryChunkIsIndexedUnderItsOwnEmbedding) {
  // The corpus embed runs on a pool in 32-chunk windows while the next
  // window is drawn: a window or slot mix-up would index some chunk under
  // another chunk's vector, and its own text would then not find it at 0.
  auto ds = Gen("squad", 40, 9);
  const VectorDatabase& db = ds->db();
  ASSERT_GT(db.num_chunks(), 10 * 32u);
  for (size_t i = 0; i < db.num_chunks(); ++i) {
    ChunkId id = static_cast<ChunkId>(i);
    std::vector<SearchHit> hits =
        db.index().Search(db.embedder().Embed(db.chunk(id).text), 1, RetrievalQuality{});
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].id, id);
    EXPECT_EQ(hits[0].distance, 0.0f) << "chunk " << i;
  }
}

TEST(DatasetGeneratorTest, HardNegativesShareAnchorsButNotAnswers) {
  auto ds = Gen("squad", 40);
  int negatives = 0;
  for (size_t c = 0; c < ds->db().num_chunks(); ++c) {
    for (int32_t fid : ds->db().chunk(static_cast<ChunkId>(c)).fact_ids) {
      const Fact& f = ds->fact(fid);
      if (f.gold || f.query_id < 0) {
        continue;
      }
      ++negatives;
      const RagQuery& q = ds->queries()[static_cast<size_t>(f.query_id)];
      std::unordered_set<std::string> gold(q.gold_answer_tokens.begin(),
                                           q.gold_answer_tokens.end());
      for (const auto& t : f.answer_tokens) {
        EXPECT_FALSE(gold.count(t));  // Wrong answers, never gold tokens.
      }
    }
  }
  EXPECT_GT(negatives, 0);
}

TEST(DatasetGeneratorTest, MetadataDescribesCorpus) {
  auto ds = Gen("kg_rag_finsec", 10);
  EXPECT_EQ(ds->db().metadata().chunk_size_tokens, 1024);
  EXPECT_NE(ds->db().metadata().description.find("1024"), std::string::npos);
  EXPECT_EQ(ds->db().metadata().domain, "finance");
}

TEST(DatasetGeneratorTest, ProfileFlagsMatchTemplates) {
  auto ds = Gen("qmsum", 40);
  for (const RagQuery& q : ds->queries()) {
    if (q.requires_joint) {
      EXPECT_GT(q.num_facts, 1);
    }
    EXPECT_GE(q.ideal_summary_tokens, 30);
    EXPECT_LE(q.ideal_summary_tokens, 200);
    EXPECT_GE(q.target_output_tokens, GetDatasetProfile("qmsum").min_output_tokens);
    EXPECT_LE(q.target_output_tokens, GetDatasetProfile("qmsum").max_output_tokens);
  }
}

// FNV-1a over a stream of fields; a string or list is preceded by its length
// so that field boundaries cannot alias.
class FieldDigest {
 public:
  void Int(int64_t v) {
    for (int b = 0; b < 64; b += 8) {
      h_ = (h_ ^ ((static_cast<uint64_t>(v) >> b) & 0xff)) * 0x100000001B3ull;
    }
  }
  void Str(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    for (unsigned char c : s) {
      h_ = (h_ ^ c) * 0x100000001B3ull;
    }
  }
  void Strs(const std::vector<std::string>& v) {
    Int(static_cast<int64_t>(v.size()));
    for (const std::string& s : v) {
      Str(s);
    }
  }
  void Ints(const std::vector<int32_t>& v) {
    Int(static_cast<int64_t>(v.size()));
    for (int32_t x : v) {
      Int(x);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

// Every generated chunk, fact and query field the runs read, in id order.
uint64_t DatasetDigest(const Dataset& ds) {
  FieldDigest d;
  d.Int(static_cast<int64_t>(ds.db().num_chunks()));
  for (size_t c = 0; c < ds.db().num_chunks(); ++c) {
    const Chunk& chunk = ds.db().chunk(static_cast<ChunkId>(c));
    d.Str(chunk.text);
    d.Int(chunk.doc_id);
    d.Int(chunk.section);
    d.Int(chunk.source);
    d.Int(chunk.time_bucket);
    d.Int(chunk.token_count);
    d.Ints(chunk.fact_ids);
  }
  d.Int(static_cast<int64_t>(ds.num_facts()));
  for (int32_t id = 0; id < static_cast<int32_t>(ds.num_facts()); ++id) {
    EXPECT_TRUE(ds.has_fact(id));
    const Fact& f = ds.fact(id);
    d.Int(f.id);
    d.Int(f.query_id);
    d.Int(f.gold);
    d.Strs(f.entity_words);
    d.Strs(f.answer_tokens);
    d.Str(f.sentence);
    d.Int(f.chunk_id);
    d.Int(f.offset_tokens);
  }
  d.Int(static_cast<int64_t>(ds.queries().size()));
  for (const RagQuery& q : ds.queries()) {
    d.Str(q.text);
    d.Ints(q.gold_fact_ids);
    d.Strs(q.gold_answer_tokens);
    d.Strs(q.conclusion_tokens);
    d.Int(q.requires_joint);
    d.Int(q.high_complexity);
    d.Int(q.underspecified);
    d.Int(q.target_output_tokens);
    d.Int(q.ideal_summary_tokens);
  }
  return d.value();
}

// Pins the generator's whole output, recorded before chunk text was appended
// in place: any change to a draw, a word, a space or a cut moves a digest.
TEST(DatasetGeneratorTest, PinnedOutputDigests) {
  DatasetProfile cut = GetDatasetProfile("qmsum");
  cut.chunk_tokens = 6;  // Every fact sentence overruns its chunk and is cut.
  struct Case {
    DatasetProfile profile;
    int num_queries;
    uint64_t digest;
  };
  const Case cases[] = {
      {GetDatasetProfile("squad"), 8, 0x65ee95ea62360664ull},
      {GetDatasetProfile("musique"), 8, 0x41a3ad3c1d9894f5ull},
      {GetDatasetProfile("kg_rag_finsec"), 8, 0x82b57c15b332f73cull},
      {GetDatasetProfile("qmsum"), 8, 0x3b3fc25c0264d7feull},
      {GetDatasetProfile("musique_topical"), 8, 0xe05090522ad007ccull},
      {GetDatasetProfile("squad_hybrid"), 8, 0xe8002c539cc8e91bull},
      {GetDatasetProfile("squad"), 0, 0x3657b8b0466fd5b2ull},
      {cut, 4, 0xe632a34d7e0514f0ull},
  };
  for (const Case& c : cases) {
    DatasetGenerator gen(c.profile, 11);
    auto ds = gen.Generate(c.num_queries, "cohere-embed-v3-sim");
    uint64_t digest = DatasetDigest(*ds);
    EXPECT_EQ(digest, c.digest) << c.profile.name << " chunk_tokens " << c.profile.chunk_tokens
                                << " num_queries " << c.num_queries << ": 0x" << std::hex
                                << digest;
  }
  // The cut profile really cuts: some chunk ends in a proper prefix of the
  // sentence placed at its recorded offset.
  DatasetGenerator gen(cut, 11);
  auto ds = gen.Generate(4, "cohere-embed-v3-sim");
  int truncated = 0;
  for (int32_t id = 0; id < static_cast<int32_t>(ds->num_facts()); ++id) {
    const Fact& f = ds->fact(id);
    std::vector<std::string> words = SplitWords(ds->db().chunk(f.chunk_id).text);
    std::vector<std::string> sentence = SplitWords(f.sentence);
    ASSERT_EQ(words.size(), 6u);
    auto at = words.begin() + f.offset_tokens;
    truncated += words.end() - at < static_cast<std::ptrdiff_t>(sentence.size()) &&
                 std::equal(at, words.end(), sentence.begin());
  }
  EXPECT_GT(truncated, 0);
}

TEST(ArrivalsTest, PoissonArrivalsAreOrderedWithCorrectRate) {
  Rng rng(3);
  auto times = PoissonArrivalTimes(rng, 4000, 2.0);
  ASSERT_EQ(times.size(), 4000u);
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]);
  }
  // Mean inter-arrival ~ 0.5 s at rate 2.
  EXPECT_NEAR(times.back() / 4000.0, 0.5, 0.05);
}

TEST(ArrivalsTest, AssignPoissonIsDeterministic) {
  auto a = Gen("squad", 10);
  std::vector<RagQuery> q1 = a->queries();
  std::vector<RagQuery> q2 = a->queries();
  AssignPoissonArrivals(q1, 2.0, 9);
  AssignPoissonArrivals(q2, 2.0, 9);
  for (size_t i = 0; i < q1.size(); ++i) {
    EXPECT_DOUBLE_EQ(q1[i].arrival_time, q2[i].arrival_time);
  }
  AssignSequentialArrivals(q1);
  EXPECT_DOUBLE_EQ(q1[5].arrival_time, 0.0);
}

TEST(ArrivalsTest, AssignArrivalsPoissonMatchesHistoricalStream) {
  // The kPoisson path of AssignArrivals is documented bit-identical to
  // AssignPoissonArrivals — existing specs keep their exact arrival times.
  auto a = Gen("squad", 20);
  std::vector<RagQuery> legacy = a->queries();
  std::vector<RagQuery> routed = a->queries();
  AssignPoissonArrivals(legacy, 2.0, 42);
  AssignArrivals(routed, ArrivalProcess{}, 2.0, 42);
  for (size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_DOUBLE_EQ(legacy[i].arrival_time, routed[i].arrival_time);
  }
}

const char* KindName(ArrivalKind kind) {
  return kind == ArrivalKind::kPoisson ? "poisson" : "flash_crowd";
}

class ArrivalKindTest : public testing::TestWithParam<ArrivalKind> {};

TEST_P(ArrivalKindTest, OrderedDeterministicAndRatePreserving) {
  ArrivalProcess process;
  process.kind = GetParam();
  const int n = 4000;
  const double rate = 2.0;
  Rng r1(7), r2(7), r3(8);
  std::vector<SimTime> a = ArrivalTimesFor(process, r1, n, rate);
  std::vector<SimTime> b = ArrivalTimesFor(process, r2, n, rate);
  std::vector<SimTime> c = ArrivalTimesFor(process, r3, n, rate);
  ASSERT_EQ(a.size(), static_cast<size_t>(n));
  EXPECT_EQ(a, b);  // Deterministic per seed...
  EXPECT_NE(a, c);  // ...and actually seed-dependent.
  EXPECT_GE(a.front(), 0.0);
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i], a[i - 1]);
  }
  // Mean-rate-preserving: over many arrivals the long-run rate approaches the
  // nominal one for every shape. Flash crowds front-load a finite window, so
  // the realized rate runs a little HOT of nominal at finite n; bound it from
  // both sides loosely.
  double realized = static_cast<double>(n) / a.back();
  EXPECT_GT(realized, 0.8 * rate);
  EXPECT_LT(realized, 1.6 * rate);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ArrivalKindTest,
                         testing::Values(ArrivalKind::kPoisson, ArrivalKind::kFlashCrowd),
                         [](const testing::TestParamInfo<ArrivalKind>& info) {
                           return std::string(KindName(info.param));
                         });

TEST(ArrivalsTest, FlashCrowdConcentratesArrivalsInWindow) {
  ArrivalProcess flash;
  flash.kind = ArrivalKind::kFlashCrowd;
  flash.flash_start_s = 20.0;
  flash.flash_duration_s = 15.0;
  flash.flash_factor = 8.0;
  const int n = 1000;
  const double rate = 2.0;
  Rng rng(5);
  std::vector<SimTime> t = ArrivalTimesFor(flash, rng, n, rate);
  size_t in_window = 0;
  for (SimTime x : t) {
    if (x >= flash.flash_start_s && x < flash.flash_start_s + flash.flash_duration_s) {
      ++in_window;
    }
  }
  // During the window the rate is 8x nominal = 16 qps over 15 s: ~240
  // arrivals vs the ~30 a flat stream would place there.
  EXPECT_GT(in_window, 150u);
  double window_rate = static_cast<double>(in_window) / flash.flash_duration_s;
  EXPECT_NEAR(window_rate, rate * flash.flash_factor, 0.35 * rate * flash.flash_factor);
}

TEST(ArrivalsTest, AssignArrivalsIsDeterministicForEveryKind) {
  auto a = Gen("squad", 30);
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kFlashCrowd}) {
    ArrivalProcess process;
    process.kind = kind;
    std::vector<RagQuery> q1 = a->queries();
    std::vector<RagQuery> q2 = a->queries();
    AssignArrivals(q1, process, 2.0, 17);
    AssignArrivals(q2, process, 2.0, 17);
    for (size_t i = 0; i < q1.size(); ++i) {
      EXPECT_DOUBLE_EQ(q1[i].arrival_time, q2[i].arrival_time) << KindName(kind);
    }
  }
}

}  // namespace
}  // namespace metis
