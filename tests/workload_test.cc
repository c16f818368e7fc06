// Unit tests for the dataset generators: structure, retrievability, Table-1
// statistics, arrival processes.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

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
  // nominal one for every shape (bursts/lulls average out). Flash crowds
  // front-load a finite window, so the realized rate runs a little HOT of
  // nominal at finite n; bound it from both sides loosely.
  double realized = static_cast<double>(n) / a.back();
  EXPECT_GT(realized, 0.8 * rate);
  EXPECT_LT(realized, 1.6 * rate);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ArrivalKindTest,
                         testing::Values(ArrivalKind::kPoisson, ArrivalKind::kBursty,
                                         ArrivalKind::kFlashCrowd),
                         [](const testing::TestParamInfo<ArrivalKind>& info) {
                           return std::string(ArrivalKindName(info.param));
                         });

TEST(ArrivalsTest, BurstyConcentratesArrivalsIntoBurstWindows) {
  // A two-state MMPP at burst_factor 3 must show tighter inter-arrival gaps
  // than Poisson at the same mean rate: the median gap (dominated by in-burst
  // arrivals) shrinks while the mean gap stays ~1/rate.
  ArrivalProcess bursty;
  bursty.kind = ArrivalKind::kBursty;
  const int n = 4000;
  Rng rb(11), rp(11);
  std::vector<SimTime> b = ArrivalTimesFor(bursty, rb, n, 2.0);
  std::vector<SimTime> p = ArrivalTimesFor(ArrivalProcess{}, rp, n, 2.0);
  auto median_gap = [](const std::vector<SimTime>& t) {
    std::vector<double> gaps;
    for (size_t i = 1; i < t.size(); ++i) {
      gaps.push_back(t[i] - t[i - 1]);
    }
    std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2, gaps.end());
    return gaps[gaps.size() / 2];
  };
  EXPECT_LT(median_gap(b), 0.8 * median_gap(p));
}

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
  for (ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kFlashCrowd}) {
    ArrivalProcess process;
    process.kind = kind;
    std::vector<RagQuery> q1 = a->queries();
    std::vector<RagQuery> q2 = a->queries();
    AssignArrivals(q1, process, 2.0, 17);
    AssignArrivals(q2, process, 2.0, 17);
    for (size_t i = 0; i < q1.size(); ++i) {
      EXPECT_DOUBLE_EQ(q1[i].arrival_time, q2[i].arrival_time) << ArrivalKindName(kind);
    }
  }
}

}  // namespace
}  // namespace metis
