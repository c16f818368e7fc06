// Tests for METIS core: Algorithm-1 rule mapping, pruned spaces, and the
// joint configuration-scheduler.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/joint_scheduler.h"
#include "src/core/mapping.h"
#include "src/runner/runner.h"

namespace metis {
namespace {

QueryProfile MakeProfile(bool joint, bool complex_q, int pieces, int smin = 40,
                         int smax = 120) {
  QueryProfile p;
  p.requires_joint = joint;
  p.high_complexity = complex_q;
  p.num_info_pieces = pieces;
  p.summary_min_tokens = smin;
  p.summary_max_tokens = smax;
  return p;
}

// ---------- Algorithm 1 ----------

TEST(RuleBasedMappingTest, NoJointMapsToRerankOnly) {
  PrunedConfigSpace space = RuleBasedMapping(MakeProfile(false, false, 1));
  ASSERT_EQ(space.methods.size(), 1u);
  EXPECT_EQ(space.methods[0], SynthesisMethod::kMapRerank);
}

TEST(RuleBasedMappingTest, JointLowMapsToStuff) {
  PrunedConfigSpace space = RuleBasedMapping(MakeProfile(true, false, 3));
  ASSERT_EQ(space.methods.size(), 1u);
  EXPECT_EQ(space.methods[0], SynthesisMethod::kStuff);
}

TEST(RuleBasedMappingTest, JointHighMapsToStuffAndMapReduce) {
  PrunedConfigSpace space = RuleBasedMapping(MakeProfile(true, true, 4));
  ASSERT_EQ(space.methods.size(), 2u);
  EXPECT_EQ(space.methods[0], SynthesisMethod::kStuff);
  EXPECT_EQ(space.methods[1], SynthesisMethod::kMapReduce);
}

TEST(RuleBasedMappingTest, ChunkRangeIsOneToThreeTimesPieces) {
  PrunedConfigSpace space = RuleBasedMapping(MakeProfile(true, false, 4));
  EXPECT_EQ(space.min_chunks, 4);
  EXPECT_EQ(space.max_chunks, 12);
}

TEST(RuleBasedMappingTest, ChunkRangeCappedByDatabase) {
  PrunedConfigSpace space = RuleBasedMapping(MakeProfile(true, false, 10), 12);
  EXPECT_EQ(space.min_chunks, 10);
  EXPECT_EQ(space.max_chunks, 12);
}

TEST(RuleBasedMappingTest, IntermediateRangeFromProfile) {
  PrunedConfigSpace space = RuleBasedMapping(MakeProfile(true, true, 4, 55, 130));
  EXPECT_EQ(space.min_intermediate, 55);
  EXPECT_EQ(space.max_intermediate, 130);
}

TEST(RuleBasedMappingTest, PruningShrinks50To100x) {
  PrunedConfigSpace space = RuleBasedMapping(MakeProfile(true, true, 3, 40, 100));
  size_t full = FullConfigSpaceSize();
  size_t pruned = space.ApproximateSize();
  EXPECT_GE(full / pruned, 15u);  // Order-of-magnitude reduction.
  EXPECT_LE(full / pruned, 400u);
}

TEST(PrunedConfigSpaceTest, ContainsChecksAllKnobs) {
  PrunedConfigSpace space = RuleBasedMapping(MakeProfile(true, true, 3, 40, 100));
  EXPECT_TRUE(space.Contains(RagConfig{SynthesisMethod::kStuff, 5, 0}));
  EXPECT_TRUE(space.Contains(RagConfig{SynthesisMethod::kMapReduce, 5, 60}));
  EXPECT_FALSE(space.Contains(RagConfig{SynthesisMethod::kMapRerank, 5, 0}));
  EXPECT_FALSE(space.Contains(RagConfig{SynthesisMethod::kStuff, 15, 0}));
  EXPECT_FALSE(space.Contains(RagConfig{SynthesisMethod::kMapReduce, 5, 300}));
}

TEST(PrunedConfigSpaceTest, AverageRightSizes) {
  PrunedConfigSpace a = RuleBasedMapping(MakeProfile(true, false, 2));
  PrunedConfigSpace b = RuleBasedMapping(MakeProfile(true, false, 6));
  PrunedConfigSpace avg = PrunedConfigSpace::AverageOf({a, b});
  EXPECT_EQ(avg.min_chunks, 4);   // (2+6)/2.
  EXPECT_EQ(avg.max_chunks, 12);  // (6+18)/2.
}

// ---------- JointScheduler ----------

class JointSchedulerTest : public ::testing::Test {
 protected:
  JointSchedulerTest()
      : dataset_(GetOrGenerateDataset("kg_rag_finsec", 30, "cohere-embed-v3-sim", 7)) {
    EngineConfig cfg;
    cfg.model = Mistral7BAwq();
    cfg.kv_pool_bytes = 4.0 * kGiB;
    engine_ = std::make_unique<LlmEngine>(&sim_, cfg, 1);
    behavior_ = std::make_unique<BehaviorModel>(BehaviorParams{}, 1);
    executor_ = std::make_unique<SynthesisExecutor>(&sim_, engine_.get(), behavior_.get(),
                                                    dataset_.get(), 1);
    scheduler_ = std::make_unique<JointScheduler>(engine_.get(), executor_.get());
  }

  // Occupies the engine's KV pool with a long-running request. The 4 GiB
  // pool holds 32768 tokens; occupancy must stay below that (with the 2%
  // admission buffer) to be admitted at all.
  void OccupyMemory(int tokens) {
    InferenceRequest req;
    req.prompt_tokens = tokens;
    req.output_tokens = 2000;  // Keeps the reservation alive for a while.
    req.on_complete = [](const RequestTiming&) {};
    engine_->Submit(std::move(req));
    sim_.Run(0.5);  // Let it admit.
  }

  std::shared_ptr<const Dataset> dataset_;
  Simulator sim_;
  std::unique_ptr<LlmEngine> engine_;
  std::unique_ptr<BehaviorModel> behavior_;
  std::unique_ptr<SynthesisExecutor> executor_;
  std::unique_ptr<JointScheduler> scheduler_;
};

TEST_F(JointSchedulerTest, PeakBytesOrdering) {
  // stuff holds the whole prompt; map_reduce's unit is a mapper or the
  // reduce prompt; map_rerank's unit is a single mapper.
  RagConfig stuff{SynthesisMethod::kStuff, 10, 0};
  RagConfig rerank{SynthesisMethod::kMapRerank, 10, 0};
  RagConfig reduce{SynthesisMethod::kMapReduce, 10, 60};
  double p_stuff = scheduler_->PeakBytes(stuff, 32, 48);
  double p_rerank = scheduler_->PeakBytes(rerank, 32, 48);
  double p_reduce = scheduler_->PeakBytes(reduce, 32, 48);
  EXPECT_GT(p_stuff, p_reduce);
  EXPECT_GT(p_stuff, p_rerank);
}

TEST_F(JointSchedulerTest, TotalBytesCountsAllCalls) {
  RagConfig rerank{SynthesisMethod::kMapRerank, 10, 0};
  EXPECT_NEAR(scheduler_->TotalBytes(rerank, 32, 48),
              10 * scheduler_->PeakBytes(rerank, 32, 48), 1.0);
}

TEST_F(JointSchedulerTest, FreeMemoryPicksRichestFittingConfig) {
  PrunedConfigSpace space = RuleBasedMapping(MakeProfile(true, false, 3));
  SchedulerDecision d = scheduler_->Choose(space, MakeProfile(true, false, 3), 32, 48);
  EXPECT_FALSE(d.used_fallback);
  EXPECT_EQ(d.config.method, SynthesisMethod::kStuff);
  // With 4 GiB free it takes the largest LITM-safe chunk count <= 3n.
  EXPECT_GT(d.config.num_chunks, 3);
}

TEST_F(JointSchedulerTest, StuffNeverExceedsLitmBudget) {
  // With pieces=4, 3n=12 chunks would be 12.4k tokens — far past the LITM
  // budget; the scheduler must stop at the budget (but never below n).
  PrunedConfigSpace space = RuleBasedMapping(MakeProfile(true, false, 4));
  SchedulerDecision d = scheduler_->Choose(space, MakeProfile(true, false, 4), 32, 48);
  int prompt = executor_->StuffPromptTokens(32, d.config.num_chunks);
  EXPECT_LE(prompt, JointScheduler::kStuffContextBudgetTokens + 1024);
  EXPECT_GE(d.config.num_chunks, space.min_chunks);
}

TEST_F(JointSchedulerTest, IdleEngineComplexJointQueryPrefersMapReduce) {
  // Fig. 4a: complex queries do best with map_reduce's denoising. On an idle
  // engine stuff fits too, with the larger footprint, so memory best-fit
  // alone would pick it; the method preference picks map_reduce instead.
  QueryProfile profile = MakeProfile(true, true, 4);
  PrunedConfigSpace space = RuleBasedMapping(profile);
  ASSERT_NE(std::find(space.methods.begin(), space.methods.end(), SynthesisMethod::kMapReduce),
            space.methods.end());
  RagConfig stuff{SynthesisMethod::kStuff, scheduler_->MaxLitmSafeStuffChunks(space, 32),
                  space.min_intermediate};
  SchedulerDecision d = scheduler_->Choose(space, profile, 32, 48);
  EXPECT_LE(scheduler_->PeakBytes(stuff, 32, 48), d.free_bytes);
  EXPECT_GT(scheduler_->PeakBytes(stuff, 32, 48), d.peak_bytes);
  EXPECT_FALSE(d.used_fallback);
  EXPECT_EQ(d.config.method, SynthesisMethod::kMapReduce);
}

TEST_F(JointSchedulerTest, HeadroomIsNetOfWaitingQueueClaims) {
  QueryProfile profile = MakeProfile(true, false, 4);  // Space = {stuff} only.
  PrunedConfigSpace space = RuleBasedMapping(profile);
  auto submit = [&](int prompt_tokens) {
    InferenceRequest req;
    req.prompt_tokens = prompt_tokens;
    req.output_tokens = 100;
    engine_->Submit(std::move(req));
  };
  // The first request admits at once and its prefill backlog fills the
  // admission window, so the next submission waits in the queue.
  submit(5000);
  ASSERT_EQ(engine_->queue_depth(), 0u);
  SchedulerDecision empty_queue = scheduler_->Choose(space, profile, 32, 48);
  EXPECT_DOUBLE_EQ(empty_queue.free_bytes, engine_->free_kv_bytes());
  EXPECT_FALSE(empty_queue.used_fallback);

  submit(25000);
  ASSERT_EQ(engine_->queue_depth(), 1u);
  SchedulerDecision queued = scheduler_->Choose(space, profile, 32, 48);
  EXPECT_DOUBLE_EQ(queued.free_bytes, engine_->projected_free_kv_bytes());
  EXPECT_LT(queued.free_bytes, engine_->free_kv_bytes());
  // The raw free pool still fits the empty-queue pick; the queue's claim
  // does not, so the scheduler falls back instead of queueing behind it.
  EXPECT_LE(empty_queue.peak_bytes, engine_->free_kv_bytes());
  EXPECT_TRUE(queued.used_fallback);
  EXPECT_FALSE(queued.config == empty_queue.config);
}

TEST_F(JointSchedulerTest, TightMemoryDowngradesToMapReduce) {
  // FinSec chunks are 1024 tokens; occupy most of the pool so no stuff
  // configuration of a complex profile fits, but mapper units do.
  OccupyMemory(28000);
  QueryProfile profile = MakeProfile(true, true, 5);
  SchedulerDecision d = scheduler_->Choose(RuleBasedMapping(profile), profile, 32, 48);
  EXPECT_NE(d.config.method, SynthesisMethod::kStuff);
}

TEST_F(JointSchedulerTest, ExhaustedMemoryFallsBackOutsideSpace) {
  OccupyMemory(29500);
  QueryProfile profile = MakeProfile(true, false, 6);  // Space = {stuff} only.
  PrunedConfigSpace space = RuleBasedMapping(profile);
  SchedulerDecision d = scheduler_->Choose(space, profile, 32, 48);
  EXPECT_TRUE(d.used_fallback);
  // Fig. 8: the fitting fallback for a joint query is map_reduce (mappers
  // slot into the batch piecewise) once stuff cannot cover the need.
  EXPECT_EQ(d.config.method, SynthesisMethod::kMapReduce);
  EXPECT_EQ(d.config.num_chunks, space.min_chunks);
}

TEST_F(JointSchedulerTest, FallbackForSimpleQueriesIsRerank) {
  OccupyMemory(29500);
  QueryProfile profile = MakeProfile(false, false, 2);
  SchedulerDecision d = scheduler_->Choose(RuleBasedMapping(profile), profile, 32, 48);
  // Rerank units always "fit piecewise": chosen either in-space or by
  // fallback, never stuff.
  EXPECT_EQ(d.config.method, SynthesisMethod::kMapRerank);
}

TEST_F(JointSchedulerTest, MedianIsInsideSpace) {
  PrunedConfigSpace space = RuleBasedMapping(MakeProfile(true, true, 4));
  RagConfig median = scheduler_->MedianOfSpace(space);
  EXPECT_TRUE(space.Contains(median));
}

TEST_F(JointSchedulerTest, QualityMaxPrefersExpensiveMethod) {
  PrunedConfigSpace space = RuleBasedMapping(MakeProfile(true, true, 4));
  RagConfig qmax = scheduler_->QualityMaxOfSpace(space);
  EXPECT_EQ(qmax.method, SynthesisMethod::kMapReduce);
  // Quality saturates inside the range: the pick is past the midpoint but
  // not at the wasteful maximum (Fig. 4c).
  EXPECT_GT(qmax.intermediate_tokens, space.min_intermediate);
  EXPECT_LE(qmax.intermediate_tokens, space.max_intermediate);
  EXPECT_GE(qmax.num_chunks, space.min_chunks);
}

}  // namespace
}  // namespace metis
