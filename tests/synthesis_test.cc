// Tests for the synthesis executors: all three methods end-to-end on a real
// generated dataset + engine, including the quality/delay orderings the paper
// builds on.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/runner/runner.h"
#include "src/synthesis/config.h"
#include "src/synthesis/synthesis.h"

namespace metis {
namespace {

class SynthesisTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = GetOrGenerateDataset("musique", 60, "cohere-embed-v3-sim", 7).get();
    keepalive_ = GetOrGenerateDataset("musique", 60, "cohere-embed-v3-sim", 7);
  }

  RagResult Run(const RagQuery& q, const RagConfig& cfg) {
    return RunSingleQuery(*dataset_, q, cfg, "mistral-7b-v3-awq", 7);
  }

  const RagQuery& JointQuery() {
    for (const RagQuery& q : dataset_->queries()) {
      if (q.requires_joint && q.num_facts >= 3) {
        return q;
      }
    }
    return dataset_->queries()[0];
  }

  static const Dataset* dataset_;
  static std::shared_ptr<const Dataset> keepalive_;
};
const Dataset* SynthesisTest::dataset_ = nullptr;
std::shared_ptr<const Dataset> SynthesisTest::keepalive_;

TEST_F(SynthesisTest, ConfigNames) {
  EXPECT_STREQ(SynthesisMethodName(SynthesisMethod::kStuff), "stuff");
  EXPECT_EQ(RagConfigToString(RagConfig{SynthesisMethod::kStuff, 5, 0}), "stuff(k=5)");
  EXPECT_EQ(RagConfigToString(RagConfig{SynthesisMethod::kMapReduce, 5, 80}),
            "map_reduce(k=5,L=80)");
}

TEST_F(SynthesisTest, StuffMakesOneCall) {
  RagResult r = Run(JointQuery(), RagConfig{SynthesisMethod::kStuff, 5, 0});
  EXPECT_EQ(r.llm_calls, 1);
  EXPECT_EQ(r.retrieved_chunks, 5);
  EXPECT_GT(r.total_prompt_tokens, 5 * 256);
  EXPECT_GT(r.finish_time, r.exec_start);
}

TEST_F(SynthesisTest, MapRerankMakesOneCallPerChunk) {
  RagResult r = Run(JointQuery(), RagConfig{SynthesisMethod::kMapRerank, 4, 0});
  EXPECT_EQ(r.llm_calls, 4);
}

TEST_F(SynthesisTest, MapReduceMakesMappersPlusReduce) {
  RagResult r = Run(JointQuery(), RagConfig{SynthesisMethod::kMapReduce, 4, 60});
  EXPECT_EQ(r.llm_calls, 5);
}

TEST_F(SynthesisTest, DeterministicAcrossRuns) {
  RagConfig cfg{SynthesisMethod::kMapReduce, 5, 60};
  RagResult a = Run(JointQuery(), cfg);
  RagResult b = Run(JointQuery(), cfg);
  EXPECT_EQ(a.answer_text, b.answer_text);
  EXPECT_DOUBLE_EQ(a.f1, b.f1);
  EXPECT_DOUBLE_EQ(a.finish_time, b.finish_time);
}

TEST_F(SynthesisTest, ChunkCountClampsToDatabase) {
  RagResult r = Run(dataset_->queries()[0],
                    RagConfig{SynthesisMethod::kStuff, 1000000, 0});
  EXPECT_LE(r.retrieved_chunks, static_cast<int>(dataset_->db().num_chunks()));
}

TEST_F(SynthesisTest, CoverageDiagnosticsPopulated) {
  const RagQuery& q = JointQuery();
  RagResult r = Run(q, RagConfig{SynthesisMethod::kStuff, 3 * q.num_facts, 0});
  EXPECT_EQ(r.gold_facts_total, q.num_facts);
  EXPECT_GE(r.gold_facts_retrieved, 1);
  EXPECT_LE(r.gold_facts_retrieved, r.gold_facts_total);
}

TEST_F(SynthesisTest, MoreChunksCostMoreComputeAndDelay) {
  const RagQuery& q = JointQuery();
  RagResult r3 = Run(q, RagConfig{SynthesisMethod::kStuff, 3, 0});
  RagResult r35 = Run(q, RagConfig{SynthesisMethod::kStuff, 35, 0});
  EXPECT_GT(r35.total_prompt_tokens, r3.total_prompt_tokens * 5);
  EXPECT_GT(r35.exec_delay(), r3.exec_delay());
}

TEST_F(SynthesisTest, LongerIntermediatesCostMoreDelay) {
  // The map stage decodes ~L tokens per chunk, so intermediate length is a
  // first-order delay knob (Fig. 4c).
  const RagQuery& q = JointQuery();
  double d_short = Run(q, RagConfig{SynthesisMethod::kMapReduce, 5, 10}).exec_delay();
  double d_long = Run(q, RagConfig{SynthesisMethod::kMapReduce, 5, 200}).exec_delay();
  EXPECT_GT(d_long, d_short * 1.5);
}

TEST_F(SynthesisTest, PromptEstimatorsMatchMethodShape) {
  Simulator sim;
  EngineConfig cfg;
  cfg.model = Mistral7BAwq();
  cfg.kv_pool_bytes = 4.0 * kGiB;
  LlmEngine engine(&sim, cfg, 1);
  BehaviorModel behavior(BehaviorParams{}, 1);
  SynthesisExecutor ex(&sim, &engine, &behavior, dataset_, 1);
  int q = 32;
  EXPECT_EQ(ex.StuffPromptTokens(q, 4),
            SynthesisExecutor::kInstructionTokens + q + 4 * 256);
  EXPECT_EQ(ex.MapperPromptTokens(q), SynthesisExecutor::kInstructionTokens + q + 256);
  EXPECT_EQ(ex.ReducePromptTokens(q, 4, 50),
            SynthesisExecutor::kInstructionTokens + q + 200);
  // Stuff grows linearly in chunks; reduce in intermediates.
  EXPECT_GT(ex.StuffPromptTokens(q, 8), ex.StuffPromptTokens(q, 4));
  EXPECT_GT(ex.ReducePromptTokens(q, 4, 100), ex.ReducePromptTokens(q, 4, 50));
}

// Every retrieval is one simulator event kRetrievalSeconds after Execute,
// and it answers what VectorDatabase::Retrieve returns at the execution's
// quality. A stuff execution submits its one engine request inside that
// event, so engine.stats().submitted steps exactly at each retrieval time.
TEST_F(SynthesisTest, RetrievalFiresAfterFixedDelayWithDirectRetrieveAnswer) {
  Simulator sim;
  EngineConfig cfg;
  cfg.model = Mistral7BAwq();
  cfg.kv_pool_bytes = 4.0 * kGiB;
  LlmEngine engine(&sim, cfg, 1);
  BehaviorModel behavior(BehaviorParams{}, 1);
  SynthesisExecutor ex(&sim, &engine, &behavior, dataset_, 1);
  const int k = 3;
  const RagConfig stuff{SynthesisMethod::kStuff, k, 0};
  // The second execution carries its own quality (the four-argument form);
  // the other two retrieve at the stack default.
  RetrievalQuality own;
  own.mode = RetrievalQuality::ProbeMode::kFixed;
  own.nprobe = 2;
  const std::vector<RetrievalQuality> qualities = {RetrievalQuality{}, own, RetrievalQuality{}};
  const std::vector<RagQuery>& queries = dataset_->queries();
  std::vector<RagResult> results(3);
  auto record = [&results](size_t i) {
    return [&results, i](RagResult r) { results[i] = std::move(r); };
  };
  // Two executions at t = 0, one at t = 0.001.
  ex.Execute(queries[0], stuff, record(0));
  ex.Execute(queries[1], stuff, own, record(1));
  sim.ScheduleAt(0.001, [&]() { ex.Execute(queries[2], stuff, record(2)); });
  const double kEps = 1e-9;
  const double t0 = SynthesisExecutor::kRetrievalSeconds;
  const double t1 = 0.001 + SynthesisExecutor::kRetrievalSeconds;
  std::vector<uint64_t> submitted;
  for (double at : {t0 - kEps, t0 + kEps, t1 - kEps, t1 + kEps}) {
    sim.ScheduleAt(at, [&]() { submitted.push_back(engine.stats().submitted); });
  }
  sim.Run();

  EXPECT_EQ(submitted, (std::vector<uint64_t>{0, 2, 2, 3}));
  for (size_t i = 0; i < results.size(); ++i) {
    std::vector<ChunkId> ids = dataset_->db().Retrieve(queries[i].text, k, qualities[i]);
    int covered = 0;
    for (int32_t fid : queries[i].gold_fact_ids) {
      if (std::find(ids.begin(), ids.end(), dataset_->fact(fid).chunk_id) != ids.end()) {
        ++covered;
      }
    }
    EXPECT_EQ(results[i].query_id, queries[i].id) << "execution " << i;
    EXPECT_EQ(results[i].retrieved_chunks, k) << "execution " << i;
    EXPECT_EQ(results[i].gold_facts_retrieved, covered) << "execution " << i;
  }
}

// Property sweep: for every synthesis method, F1 is in [0,1], the answer is
// non-empty, and timing is monotone.
class SynthesisMethodSweep : public SynthesisTest,
                             public ::testing::WithParamInterface<SynthesisMethod> {};

TEST_P(SynthesisMethodSweep, InvariantsHoldAcrossQueries) {
  for (int qi = 0; qi < 12; ++qi) {
    const RagQuery& q = dataset_->queries()[static_cast<size_t>(qi)];
    RagResult r = Run(q, RagConfig{GetParam(), 4, 60});
    EXPECT_GE(r.f1, 0.0);
    EXPECT_LE(r.f1, 1.0);
    EXPECT_FALSE(r.answer_text.empty());  // Models always emit something.
    EXPECT_GT(r.finish_time, r.exec_start);
    EXPECT_GE(r.exec_delay(), SynthesisExecutor::kRetrievalSeconds);
    EXPECT_GT(r.total_output_tokens, 0);
    EXPECT_EQ(r.query_id, q.id);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SynthesisMethodSweep,
                         ::testing::Values(SynthesisMethod::kMapRerank,
                                           SynthesisMethod::kStuff,
                                           SynthesisMethod::kMapReduce),
                         [](const ::testing::TestParamInfo<SynthesisMethod>& info) {
                           return SynthesisMethodName(info.param);
                         });

}  // namespace
}  // namespace metis
