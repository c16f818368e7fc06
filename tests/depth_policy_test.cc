// Profiler-driven per-query retrieval depth, unit + end to end (the
// retrieval_knob_test counterpart for the per-QUERY knob):
//
//   1. RetrievalDepthPolicy implements the documented budget curve
//      budget(p) = clamp(base + slope * p, min, max), with the low-confidence
//      fallback to the full budget.
//   2. Through a full Runner experiment on the IVF backend with
//      per_query_depth enabled, every query probes exactly the budget its
//      profile maps to — pinned by comparing RunMetrics::probe_histogram
//      bucket-for-bucket against the histogram predicted from the recorded
//      per-query profiles.
//   3. With per_query_depth off, the per-run knob is bit-identical to the
//      PR 3 behaviour (the depth policy is provably out of the loop).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/joint_scheduler.h"
#include "src/core/retrieval_depth.h"
#include "src/runner/runner.h"
#include "src/vectordb/vectordb.h"

namespace metis {
namespace {

QueryProfile ProfileWith(int pieces, double confidence = 1.0) {
  QueryProfile p;
  p.num_info_pieces = pieces;
  p.confidence = confidence;
  return p;
}

TEST(RetrievalDepthPolicyTest, DocumentedBudgetCurve) {
  // Defaults: base=10, slope=-2, min=2, max=8 -> budget(p) = clamp(10 - 2p)
  // — deep scans for all-or-nothing single-fact lookups, shallow for
  // partial-credit multihop (the measured direction; see retrieval_depth.h).
  RetrievalDepthPolicy policy;
  EXPECT_EQ(policy.BudgetFor(ProfileWith(1)), 8u);
  EXPECT_EQ(policy.BudgetFor(ProfileWith(2)), 6u);
  EXPECT_EQ(policy.BudgetFor(ProfileWith(3)), 4u);
  EXPECT_EQ(policy.BudgetFor(ProfileWith(4)), 2u);
  EXPECT_EQ(policy.BudgetFor(ProfileWith(10)), 2u);  // Clamped to min_budget.
  EXPECT_EQ(policy.BudgetFor(ProfileWith(0)), 8u);   // Pieces floor at 1.

  // Positive slopes remain expressible (the slope is signed).
  RetrievalDepthPolicyOptions opts;
  opts.base_probes = 2;
  opts.probes_per_piece = 3;
  opts.min_budget = 4;
  opts.max_budget = 12;
  RetrievalDepthPolicy custom(opts);
  EXPECT_EQ(custom.BudgetFor(ProfileWith(1)), 5u);   // 2 + 3*1.
  EXPECT_EQ(custom.BudgetFor(ProfileWith(3)), 11u);  // 2 + 3*3.
  EXPECT_EQ(custom.BudgetFor(ProfileWith(4)), 12u);  // Clamped.
}

TEST(RetrievalDepthPolicyTest, LowConfidenceFallsBackToFullBudget) {
  RetrievalDepthPolicy policy;  // Confidence threshold 0.5, max_budget = 8.
  EXPECT_EQ(policy.BudgetFor(ProfileWith(4, /*confidence=*/0.4)), 8u);
  EXPECT_EQ(policy.BudgetFor(ProfileWith(4, /*confidence=*/0.5)), 2u);  // At threshold: trusted.
}

TEST(RetrievalDepthPolicyTest, QualityForCarriesModeAndBudget) {
  RetrievalDepthPolicyOptions opts;
  opts.adaptive = true;
  RetrievalDepthPolicy adaptive(opts);
  RetrievalQuality q = adaptive.QualityFor(ProfileWith(3));
  EXPECT_EQ(q.mode, RetrievalQuality::ProbeMode::kAdaptive);
  EXPECT_EQ(q.nprobe, 4u);  // 10 - 2*3.

  opts.adaptive = false;
  RetrievalDepthPolicy fixed(opts);
  q = fixed.QualityFor(ProfileWith(3));
  EXPECT_EQ(q.mode, RetrievalQuality::ProbeMode::kFixed);
  EXPECT_EQ(q.nprobe, 4u);
}

RunSpec MetisIvfSpec() {
  RunSpec spec;
  spec.dataset = "musique";
  spec.num_queries = 30;
  spec.arrival_rate = 2.0;
  spec.system = SystemKind::kMetis;
  spec.seed = 11;
  spec.retrieval.backend = RetrievalIndexOptions::Backend::kIvf;
  spec.retrieval.nlist = 16;
  spec.retrieval.nprobe = 4;
  return spec;
}

TEST(RetrievalDepthEndToEndTest, PerQueryBudgetsMatchProfilesAndHistogramExactly) {
  RunSpec spec = MetisIvfSpec();
  spec.scheduler.per_query_depth = true;
  spec.scheduler.depth.adaptive = false;  // Fixed per-query budgets: every
                                          // search probes exactly budget(p).
  RunMetrics m = RunExperiment(spec);
  ASSERT_EQ(m.records.size(), 30u);

  // Predict the probe histogram from the recorded profiles through the
  // documented curve; each query retrieves exactly once.
  RetrievalDepthPolicy policy(spec.scheduler.depth);
  std::vector<uint64_t> expected(IvfL2Index::kProbeHistogramBuckets, 0);
  uint64_t total_probes = 0;
  for (const QueryRecord& rec : m.records) {
    size_t budget = policy.BudgetFor(rec.profile);
    // The stack recorded the quality it actually used for this query.
    EXPECT_EQ(rec.retrieval_quality.nprobe, budget);
    EXPECT_EQ(rec.retrieval_quality.mode, RetrievalQuality::ProbeMode::kFixed);
    expected[budget] += 1;
    total_probes += budget;
  }
  ASSERT_EQ(m.probe_histogram.size(), expected.size());
  EXPECT_EQ(m.probe_histogram, expected);
  EXPECT_DOUBLE_EQ(m.mean_probes,
                   static_cast<double>(total_probes) / static_cast<double>(m.records.size()));

  // The whole point: budgets actually VARY per query (otherwise this is the
  // per-run knob in disguise).
  size_t distinct = 0;
  for (uint64_t count : m.probe_histogram) {
    if (count > 0) {
      ++distinct;
    }
  }
  EXPECT_GE(distinct, 2u);
}

TEST(RetrievalDepthEndToEndTest, AdaptiveModeStaysWithinPerQueryBudgets) {
  RunSpec spec = MetisIvfSpec();
  spec.scheduler.per_query_depth = true;
  spec.scheduler.depth.adaptive = true;
  spec.retrieval.adaptive.min_probes = 1;
  spec.retrieval.adaptive.distance_ratio = 1.5;
  RunMetrics m = RunExperiment(spec);
  ASSERT_EQ(m.records.size(), 30u);

  RetrievalDepthPolicy policy(spec.scheduler.depth);
  uint64_t max_budget = 0;
  for (const QueryRecord& rec : m.records) {
    max_budget = std::max<uint64_t>(max_budget, policy.BudgetFor(rec.profile));
  }
  // Early termination can only shorten scans: nothing past the largest
  // assigned budget, at least one probe each.
  ASSERT_EQ(m.probe_histogram.size(), IvfL2Index::kProbeHistogramBuckets);
  EXPECT_EQ(m.probe_histogram[0], 0u);
  for (size_t p = max_budget + 1; p < m.probe_histogram.size(); ++p) {
    EXPECT_EQ(m.probe_histogram[p], 0u) << "bucket " << p;
  }
  EXPECT_GE(m.mean_probes, 1.0);
  EXPECT_LE(m.mean_probes, static_cast<double>(max_budget));
}

TEST(RetrievalDepthEndToEndTest, FlagOffRestoresThePerRunKnob) {
  // per_query_depth=false: the per-run knob applies to every query, exactly
  // as in PR 3 — a fixed budget of 2 pins every search at 2 probes, and the
  // depth-policy options are provably out of the loop (changing them moves
  // nothing).
  RunSpec spec = MetisIvfSpec();
  spec.scheduler.per_query_depth = false;
  spec.scheduler.adaptive_nprobe = false;
  spec.scheduler.nprobe_budget = 2;
  RunMetrics off = RunExperiment(spec);
  ASSERT_EQ(off.records.size(), 30u);
  EXPECT_DOUBLE_EQ(off.mean_probes, 2.0);
  ASSERT_EQ(off.probe_histogram.size(), IvfL2Index::kProbeHistogramBuckets);
  EXPECT_EQ(off.probe_histogram[2], 30u);

  spec.scheduler.depth.max_budget = 16;  // Would change per-query behaviour...
  spec.scheduler.depth.base_probes = 7;
  RunMetrics off2 = RunExperiment(spec);
  EXPECT_EQ(off.probe_histogram, off2.probe_histogram);  // ...but the flag is off.
  EXPECT_DOUBLE_EQ(off.mean_f1(), off2.mean_f1());
  EXPECT_DOUBLE_EQ(off.mean_delay(), off2.mean_delay());
}

}  // namespace
}  // namespace metis
