// End-to-end retrieval-depth knob tests: the IVF backend + nprobe knob must
// be reachable from a RunSpec, through RetrievalQualityFromOptions and the
// serving stack (SynthesisExecutor / VectorDatabase::Retrieve), down to
// IvfL2Index — observable as probe accounting in RunMetrics. This is the integration
// counterpart to the unit coverage in recall_test / retrieval_parity_test:
// it proves the knob is live in real experiments, not just in bench_recall.

#include <gtest/gtest.h>

#include "src/core/joint_scheduler.h"
#include "src/runner/runner.h"
#include "src/vectordb/vectordb.h"

namespace metis {
namespace {

RunSpec IvfSpec() {
  RunSpec spec;
  spec.dataset = "musique";
  spec.num_queries = 20;
  spec.arrival_rate = 2.0;
  spec.system = SystemKind::kVllmFixed;  // Fixed config: every retrieval goes
                                         // through the executor's Retrieve.
  spec.seed = 7;
  spec.retrieval.backend = RetrievalIndexOptions::Backend::kIvf;
  spec.retrieval.nlist = 16;
  spec.retrieval.nprobe = 4;
  return spec;
}

TEST(RetrievalQualityFromOptionsTest, MapsSchedulerKnobsToProbeModes) {
  JointSchedulerOptions options;
  options.adaptive_nprobe = true;
  options.nprobe_budget = 6;
  RetrievalQuality q = RetrievalQualityFromOptions(options);
  EXPECT_EQ(q.mode, RetrievalQuality::ProbeMode::kAdaptive);
  EXPECT_EQ(q.nprobe, 6u);

  options.adaptive_nprobe = false;
  options.nprobe_budget = 0;
  q = RetrievalQualityFromOptions(options);
  EXPECT_EQ(q.mode, RetrievalQuality::ProbeMode::kFixed);
  EXPECT_EQ(q.nprobe, 0u);  // 0 = the index's configured default.
}

TEST(RetrievalKnobTest, DatasetBuildsTrainedIvfBackend) {
  RunSpec spec = IvfSpec();
  std::shared_ptr<const Dataset> ds = GetOrGenerateDataset(
      spec.dataset, spec.num_queries, spec.embedding_model, spec.seed, spec.retrieval);
  const IvfL2Index* ivf = ds->db().ivf_index();
  ASSERT_NE(ivf, nullptr);
  EXPECT_TRUE(ivf->trained());  // FinalizeIndex ran during generation.
  EXPECT_EQ(ivf->nlist(), 16u);
  EXPECT_EQ(ivf->size(), ds->db().num_chunks());
}

TEST(RetrievalKnobTest, FixedNprobeBudgetReachesTheIndexThroughARun) {
  // With adaptive probing off and an explicit budget, EVERY index search in
  // the run must probe exactly that many lists — mean_probes == budget is
  // only possible if the RunSpec knob reached IvfL2Index unmodified.
  RunSpec spec = IvfSpec();
  spec.scheduler.adaptive_nprobe = false;
  spec.scheduler.nprobe_budget = 2;
  RunMetrics m = RunExperiment(spec);
  EXPECT_EQ(m.records.size(), 20u);
  EXPECT_GT(m.mean_f1(), 0.0);
  EXPECT_DOUBLE_EQ(m.mean_probes, 2.0);
}

TEST(RetrievalKnobTest, AdaptiveNprobeVariesWithinBudgetEndToEnd) {
  // Adaptive mode: per-query early termination keeps the mean at or under
  // the budget and at or above one probe; completing the run proves the
  // adaptive path is live under the full serving stack.
  RunSpec spec = IvfSpec();
  spec.retrieval.adaptive.enabled = true;
  spec.retrieval.adaptive.min_probes = 1;
  spec.retrieval.adaptive.distance_ratio = 1.5;
  spec.scheduler.adaptive_nprobe = true;
  spec.scheduler.nprobe_budget = 8;
  RunMetrics m = RunExperiment(spec);
  EXPECT_EQ(m.records.size(), 20u);
  EXPECT_GE(m.mean_probes, 1.0);
  EXPECT_LE(m.mean_probes, 8.0);

  // A deeper budget can only probe more (or equal): the knob moves the
  // measured behaviour monotonically.
  spec.scheduler.nprobe_budget = 1;
  RunMetrics shallow = RunExperiment(spec);
  EXPECT_DOUBLE_EQ(shallow.mean_probes, 1.0);  // Budget 1 pins every query.
  EXPECT_LE(shallow.mean_probes, m.mean_probes);
}

TEST(RetrievalKnobTest, FlatBackendReportsZeroProbes) {
  RunSpec spec = IvfSpec();
  spec.retrieval = RetrievalIndexOptions{};  // Paper default: exact flat.
  RunMetrics m = RunExperiment(spec);
  EXPECT_EQ(m.records.size(), 20u);
  EXPECT_DOUBLE_EQ(m.mean_probes, 0.0);
}

}  // namespace
}  // namespace metis
