// Integration tests: full serving experiments through the runner, covering
// every system kind, mixed workloads, determinism, and the paper's headline
// orderings at small scale.

#include <gtest/gtest.h>

#include "src/runner/runner.h"

namespace metis {
namespace {

RunSpec SmallSpec(SystemKind system) {
  RunSpec spec;
  spec.dataset = "musique";
  spec.num_queries = 30;
  spec.arrival_rate = 2.0;
  spec.system = system;
  spec.seed = 11;
  return spec;
}

TEST(RunnerTest, VllmFixedServesEveryQuery) {
  RunMetrics m = RunExperiment(SmallSpec(SystemKind::kVllmFixed));
  EXPECT_EQ(m.records.size(), 30u);
  EXPECT_GT(m.mean_f1(), 0.1);
  EXPECT_GT(m.mean_delay(), 0.0);
  EXPECT_GT(m.throughput_qps, 0.0);
  EXPECT_GT(m.engine_cost_usd, 0.0);
  EXPECT_EQ(m.profiler_delays.count(), 0u);  // Fixed config: no profiler.
}

TEST(RunnerTest, MetisServesEveryQueryWithProfiler) {
  RunMetrics m = RunExperiment(SmallSpec(SystemKind::kMetis));
  EXPECT_EQ(m.records.size(), 30u);
  EXPECT_EQ(m.profiler_delays.count(), 30u);
  EXPECT_GT(m.profiler_cost_usd, 0.0);
  for (const QueryRecord& r : m.records) {
    EXPECT_GE(r.e2e_delay, r.profiler_delay);
    EXPECT_GE(r.profile.num_info_pieces, 1);
  }
}

TEST(RunnerTest, MetisQmsumStuffChoicesStayInsideLitmBudget) {
  RunSpec spec;
  spec.dataset = "qmsum";  // Exercises all three methods and the fallbacks.
  spec.num_queries = 25;
  spec.arrival_rate = 2.0;
  spec.system = SystemKind::kMetis;
  spec.seed = 17;
  RunMetrics m = RunExperiment(spec);

  ASSERT_EQ(m.records.size(), 25u);
  EXPECT_GT(m.mean_f1(), 0.15);
  EXPECT_LE(m.f1s.max(), 1.0);
  EXPECT_GT(m.mean_delay(), 0.0);
  for (const QueryRecord& r : m.records) {
    EXPECT_GE(r.config.num_chunks, 1);
    EXPECT_LE(r.config.num_chunks, 64);
    if (r.config.method == SynthesisMethod::kStuff && !r.scheduler_fallback &&
        !r.low_confidence_fallback) {
      // In-space stuff choices respect the LITM budget (plus one chunk of
      // slack for the min_chunks floor on large information needs).
      int prompt = 64 + 40 + r.config.num_chunks * 512;
      EXPECT_LE(prompt, JointScheduler::kStuffContextBudgetTokens +
                            r.profile.num_info_pieces * 512);
    }
  }
}

TEST(RunnerTest, AdaptiveRagUsesQualityMaxConfigs) {
  RunMetrics m = RunExperiment(SmallSpec(SystemKind::kAdaptiveRag));
  EXPECT_EQ(m.records.size(), 30u);
  // Its per-query configs vary (adaptive), unlike a fixed system.
  bool varies = false;
  for (const QueryRecord& r : m.records) {
    varies = varies || !(r.config == m.records[0].config);
  }
  EXPECT_TRUE(varies);
}

TEST(RunnerTest, DeterministicAcrossInvocations) {
  RunMetrics a = RunExperiment(SmallSpec(SystemKind::kMetis));
  RunMetrics b = RunExperiment(SmallSpec(SystemKind::kMetis));
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_DOUBLE_EQ(a.mean_f1(), b.mean_f1());
  EXPECT_DOUBLE_EQ(a.mean_delay(), b.mean_delay());
}

TEST(RunnerTest, SeedChangesOutcome) {
  RunSpec spec = SmallSpec(SystemKind::kMetis);
  RunMetrics a = RunExperiment(spec);
  spec.seed = 12;
  RunMetrics b = RunExperiment(spec);
  EXPECT_NE(a.mean_delay(), b.mean_delay());
}

TEST(RunnerTest, ClosedLoopServesSequentially) {
  RunSpec spec = SmallSpec(SystemKind::kVllmFixed);
  spec.arrival_rate = -1;
  RunMetrics m = RunExperiment(spec);
  EXPECT_EQ(m.records.size(), 30u);
  // One query at a time: no queueing, so delays are tight around service.
  EXPECT_LT(m.p90_delay(), m.mean_delay() * 3);
}

TEST(RunnerTest, ParrotIsFasterThanVllmAtSameQuality) {
  RunSpec spec = SmallSpec(SystemKind::kVllmFixed);
  spec.dataset = "kg_rag_finsec";
  spec.num_queries = 60;
  spec.fixed_config = RagConfig{SynthesisMethod::kMapReduce, 6, 80};
  RunMetrics vllm = RunExperiment(spec);
  spec.system = SystemKind::kParrotFixed;
  RunMetrics parrot = RunExperiment(spec);
  EXPECT_DOUBLE_EQ(parrot.mean_f1(), vllm.mean_f1());  // Same configs, same answers.
  EXPECT_LT(parrot.mean_delay(), vllm.mean_delay());   // Batching helps delay.
}

TEST(RunnerTest, MixedRunReportsPerDataset) {
  MixedRunSpec spec;
  spec.datasets = {"squad", "musique"};
  spec.queries_per_dataset = 25;
  spec.seed = 11;
  spec.system = SystemKind::kMetis;
  auto results = RunMixedExperiment(spec);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].records.size(), 25u);
  EXPECT_EQ(results[1].records.size(), 25u);
  EXPECT_NE(results[0].label, results[1].label);
}

TEST(RunnerTest, MixedContentionRaisesDelay) {
  MixedRunSpec spec;
  spec.datasets = {"musique"};
  spec.queries_per_dataset = 40;
  spec.seed = 11;
  spec.system = SystemKind::kVllmFixed;
  spec.fixed_configs = {RagConfig{SynthesisMethod::kStuff, 8, 0}};
  double alone = RunMixedExperiment(spec)[0].mean_delay();
  spec.datasets = {"musique", "kg_rag_finsec", "qmsum"};
  double contended = RunMixedExperiment(spec)[0].mean_delay();
  EXPECT_GT(contended, alone);
}

TEST(RunnerTest, DatasetCacheReturnsSameInstance) {
  auto a = GetOrGenerateDataset("squad", 30, "cohere-embed-v3-sim", 3);
  auto b = GetOrGenerateDataset("squad", 30, "cohere-embed-v3-sim", 3);
  EXPECT_EQ(a.get(), b.get());
  auto c = GetOrGenerateDataset("squad", 30, "cohere-embed-v3-sim", 4);
  EXPECT_NE(a.get(), c.get());
}

TEST(RunnerTest, FixedConfigMenuCoversAllMethods) {
  auto menu = FixedConfigMenu(GetDatasetProfile("qmsum"));
  bool has_rerank = false, has_stuff = false, has_reduce = false;
  for (const RagConfig& c : menu) {
    has_rerank = has_rerank || c.method == SynthesisMethod::kMapRerank;
    has_stuff = has_stuff || c.method == SynthesisMethod::kStuff;
    has_reduce = has_reduce || c.method == SynthesisMethod::kMapReduce;
  }
  EXPECT_TRUE(has_rerank && has_stuff && has_reduce);
}

TEST(RunnerTest, DefaultKvPoolScalesWithModel) {
  EXPECT_GT(DefaultKvPoolGib(Llama70BAwq()), DefaultKvPoolGib(Mistral7BAwq()));
  EXPECT_GE(DefaultKvPoolGib(Mistral7BAwq()), 2.5);
}

// The headline ordering at miniature scale: METIS matches AdaptiveRAG*'s
// quality at visibly lower delay under contention.
TEST(RunnerIntegrationTest, MetisBeatsAdaptiveOnDelayAtParity) {
  MixedRunSpec spec;
  spec.queries_per_dataset = 60;
  spec.seed = 11;
  spec.system = SystemKind::kMetis;
  auto metis = RunMixedExperiment(spec);
  spec.system = SystemKind::kAdaptiveRag;
  auto adaptive = RunMixedExperiment(spec);
  double metis_delay = 0, adaptive_delay = 0, metis_f1 = 0, adaptive_f1 = 0;
  for (size_t d = 0; d < metis.size(); ++d) {
    metis_delay += metis[d].mean_delay();
    adaptive_delay += adaptive[d].mean_delay();
    metis_f1 += metis[d].mean_f1();
    adaptive_f1 += adaptive[d].mean_f1();
  }
  EXPECT_LT(metis_delay, adaptive_delay * 0.9);
  EXPECT_GT(metis_f1, adaptive_f1 - 0.25);
}

// Property sweep over datasets: every dataset serves end-to-end under METIS
// with sane metrics.
class DatasetSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(DatasetSweep, MetisServesDataset) {
  RunSpec spec;
  spec.dataset = GetParam();
  spec.num_queries = 20;
  spec.arrival_rate = 1.0;
  spec.system = SystemKind::kMetis;
  spec.seed = 13;
  RunMetrics m = RunExperiment(spec);
  EXPECT_EQ(m.records.size(), 20u);
  EXPECT_GT(m.mean_f1(), 0.15);
  EXPECT_LT(m.mean_f1(), 1.0);
  EXPECT_GT(m.mean_delay(), 0.0);
  EXPECT_LT(m.profiler_fracs.mean(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetSweep,
                         ::testing::Values("squad", "musique", "kg_rag_finsec", "qmsum"));

}  // namespace
}  // namespace metis
