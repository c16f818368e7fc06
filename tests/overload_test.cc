// Multi-tenant overload control: the OverloadController's ladder mechanics,
// the MetisSystem admission path, flag-off parity, and whole-run accounting
// under above-capacity load (src/core/overload.h, src/runner SLO plumbing).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/core/overload.h"
#include "src/core/retrieval_depth.h"
#include "src/runner/runner.h"

namespace metis {
namespace {

// --- OverloadController unit mechanics (idle engine: pressure 0) ----------

struct ControllerFixture {
  Simulator sim;
  LlmEngine engine;
  ControllerFixture()
      : engine(&sim,
               [] {
                 EngineConfig cfg;
                 cfg.model = GetModelSpec("mistral-7b-v3-awq");
                 cfg.kv_pool_bytes = 4.0 * kGiB;
                 return cfg;
               }(),
               1) {}
};

std::vector<TenantClass> TwoClasses() {
  return {TenantClass{"interactive", /*priority=*/2, /*deadline_s=*/3.0, /*rate_share=*/0.5},
          TenantClass{"besteffort", /*priority=*/0, /*deadline_s=*/0.0, /*rate_share=*/0.5}};
}

TEST(OverloadControllerTest, IdleEnginePressureIsZeroAndAdmitsEverything) {
  ControllerFixture f;
  OverloadOptions options;
  options.enabled = true;
  OverloadController controller(&f.engine, TwoClasses(), options);
  EXPECT_DOUBLE_EQ(controller.Pressure(), 0.0);
  for (int i = 0; i < 10; ++i) {
    OverloadLevel level = controller.Assess();
    EXPECT_EQ(level, OverloadLevel::kNone);
    EXPECT_TRUE(controller.Admit(i % 2, level));
  }
  EXPECT_EQ(controller.stats().rejected, 0u);
  EXPECT_EQ(controller.stats().admitted, 10u);
  EXPECT_EQ(controller.stats().max_level, 0);

  // Shed accounting counts only what the systems note.
  EXPECT_EQ(controller.stats().hybrid_shed, 0u);
  controller.NoteHybridShed();
  EXPECT_EQ(controller.stats().hybrid_shed, 1u);
}

TEST(OverloadControllerTest, TenantIndexClampsToDefaultClass) {
  ControllerFixture f;
  OverloadController controller(&f.engine, TwoClasses(), OverloadOptions{});
  EXPECT_EQ(controller.tenant(0).name, "interactive");
  EXPECT_EQ(controller.tenant(1).name, "besteffort");
  EXPECT_EQ(controller.tenant(-1).name, "default");
  EXPECT_EQ(controller.tenant(7).name, "default");
}

TEST(OverloadControllerTest, ProtectedClassNeverRejectedUnprotectedBacksOff) {
  ControllerFixture f;
  OverloadOptions options;
  options.enabled = true;
  options.protect_priority = 1;
  options.backoff_initial = 2;
  options.backoff_max = 8;
  OverloadController controller(&f.engine, TwoClasses(), options);

  // Protected class (priority 2 >= 1): always admitted, even at kReject.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(controller.Admit(0, OverloadLevel::kReject));
  }
  // Unprotected class at kReject: deterministic trickle. First arrival admits
  // and arms stride=2 (1 reject), then stride doubles on each admitted probe
  // up to backoff_max: admit, reject, admit, reject x3, admit, reject x7, ...
  std::vector<bool> admitted;
  for (int i = 0; i < 14; ++i) {
    admitted.push_back(controller.Admit(1, OverloadLevel::kReject));
  }
  std::vector<bool> expected = {true, false, true, false, false, false, true,
                                false, false, false, false, false, false, false};
  EXPECT_EQ(admitted, expected);

  // Below kReject everything admits regardless of class.
  EXPECT_TRUE(controller.Admit(1, OverloadLevel::kCheapSynthesis));
}

TEST(OverloadControllerTest, PressureRisesWithBacklogAndLeavingRejectResetsBackoff) {
  ControllerFixture f;
  OverloadOptions options;
  options.enabled = true;
  // One submission is admitted into the running batch immediately; each
  // *waiting* request then contributes 1.0 pressure, clearing reject_at.
  options.queue_depth_ref = 1.0;
  OverloadController controller(&f.engine, TwoClasses(), options);

  for (int i = 0; i < 4; ++i) {
    InferenceRequest req;
    req.prompt_tokens = 32;
    req.output_tokens = 8;
    f.engine.Submit(std::move(req));
  }
  EXPECT_GE(controller.Pressure(), options.reject_at);
  EXPECT_EQ(controller.Assess(), OverloadLevel::kReject);
  EXPECT_TRUE(controller.Admit(1, OverloadLevel::kReject));   // Arms stride 2.
  EXPECT_FALSE(controller.Admit(1, OverloadLevel::kReject));
  EXPECT_TRUE(controller.Admit(1, OverloadLevel::kReject));   // Stride -> 4.
  EXPECT_FALSE(controller.Admit(1, OverloadLevel::kReject));

  f.sim.Run();  // Drain the backlog; pressure returns to zero.
  EXPECT_DOUBLE_EQ(controller.Pressure(), 0.0);
  EXPECT_EQ(controller.Assess(), OverloadLevel::kNone);  // Leaves kReject.

  // Fresh episode: the backoff starts over at the initial stride instead of
  // continuing the stride-4 countdown armed above.
  EXPECT_TRUE(controller.Admit(1, OverloadLevel::kReject));
  EXPECT_FALSE(controller.Admit(1, OverloadLevel::kReject));
  EXPECT_TRUE(controller.Admit(1, OverloadLevel::kReject));
  EXPECT_EQ(controller.stats().max_level, static_cast<int>(OverloadLevel::kReject));
  EXPECT_GE(controller.stats().peak_pressure, options.reject_at);
}

TEST(OverloadControllerTest, BacklogClimbsEveryRungAtItsThreshold) {
  // At t = 0 the waiting requests have no age and no KV deficit, so pressure
  // is exactly waiting / queue_depth_ref and each default threshold
  // (0.75 / 1.5 / 2.5) is hit exactly at ref 4.
  ControllerFixture f;
  OverloadOptions options;
  options.enabled = true;
  options.queue_depth_ref = 4.0;
  OverloadController controller(&f.engine, TwoClasses(), options);
  struct Step {
    size_t waiting;
    OverloadLevel level;
  };
  const Step steps[] = {{2, OverloadLevel::kNone},
                        {3, OverloadLevel::kShedDepth},
                        {6, OverloadLevel::kCheapSynthesis},
                        {8, OverloadLevel::kCheapSynthesis},
                        {10, OverloadLevel::kReject}};
  for (const Step& step : steps) {
    // The first submission is admitted at once; later ones wait behind its
    // in-flight step.
    while (f.engine.queue_depth() < step.waiting) {
      InferenceRequest req;
      req.prompt_tokens = 32;
      req.output_tokens = 8;
      f.engine.Submit(std::move(req));
    }
    EXPECT_DOUBLE_EQ(controller.Pressure(), static_cast<double>(step.waiting) / 4.0);
    EXPECT_EQ(controller.Assess(), step.level) << step.waiting << " waiting";
  }
}

TEST(OverloadControllerTest, RungThresholdDefaultsArePinned) {
  // The ladder's contract with the rest of the stack: systems.cc applies
  // hybrid/depth sheds at kShedDepth, cheap synthesis at kCheapSynthesis,
  // admission trickle at kReject. Moving
  // a default silently re-tunes every deployment — pin them.
  OverloadOptions defaults;
  EXPECT_DOUBLE_EQ(defaults.shed_depth_at, 0.75);
  EXPECT_DOUBLE_EQ(defaults.cheap_synthesis_at, 1.5);
  EXPECT_DOUBLE_EQ(defaults.reject_at, 2.5);
}

TEST(OverloadControllerTest, ThresholdValidationAborts) {
  ControllerFixture f;
  OverloadOptions bad;
  bad.shed_depth_at = 2.0;
  bad.cheap_synthesis_at = 1.0;  // Not ascending.
  EXPECT_DEATH(OverloadController(&f.engine, {}, bad), "cheap_synthesis_at");
}

TEST(ClampToBudgetTest, CapsFixedAndAdaptiveAndPinsIndexDefault) {
  RetrievalQuality fixed;
  fixed.mode = RetrievalQuality::ProbeMode::kFixed;
  fixed.nprobe = 10;
  EXPECT_EQ(RetrievalDepthPolicy::ClampToBudget(fixed, 4).nprobe, 4u);
  EXPECT_EQ(RetrievalDepthPolicy::ClampToBudget(fixed, 16).nprobe, 10u);  // No inflation.
  EXPECT_EQ(RetrievalDepthPolicy::ClampToBudget(fixed, 0).nprobe, 10u);   // 0 = disabled.

  RetrievalQuality adaptive;
  adaptive.mode = RetrievalQuality::ProbeMode::kAdaptive;
  adaptive.nprobe = 12;
  RetrievalQuality clamped = RetrievalDepthPolicy::ClampToBudget(adaptive, 3);
  EXPECT_EQ(clamped.mode, RetrievalQuality::ProbeMode::kAdaptive);
  EXPECT_EQ(clamped.nprobe, 3u);

  RetrievalQuality def;  // kIndexDefault: depth invisible, shed to exactly cap.
  RetrievalQuality shed = RetrievalDepthPolicy::ClampToBudget(def, 2);
  EXPECT_EQ(shed.mode, RetrievalQuality::ProbeMode::kFixed);
  EXPECT_EQ(shed.nprobe, 2u);
}

// --- Whole-run behaviour ---------------------------------------------------

RunSpec OverloadSpec(double rate, bool ladder) {
  RunSpec spec;
  spec.dataset = "musique";
  spec.num_queries = 80;
  spec.arrival_rate = rate;
  spec.system = SystemKind::kMetis;
  spec.seed = 42;
  spec.tenants = {
      TenantClass{"interactive", /*priority=*/2, /*deadline_s=*/3.5, /*rate_share=*/0.3},
      TenantClass{"besteffort", /*priority=*/0, /*deadline_s=*/14.0, /*rate_share=*/0.7}};
  spec.overload.enabled = ladder;
  return spec;
}

TEST(OverloadRunTest, AboveCapacityRunDrainsWithExactAccounting) {
  RunMetrics m = RunExperiment(OverloadSpec(/*rate=*/64.0, /*ladder=*/true));

  // The admission queue drained: every query produced exactly one record.
  ASSERT_EQ(m.records.size(), 80u);
  std::set<int32_t> ids;
  for (const QueryRecord& rec : m.records) {
    ids.insert(rec.query_id);
  }
  EXPECT_EQ(ids.size(), 80u);  // No query lost or double-completed.

  // Offered/completed/rejected accounting is exact, overall and per class.
  ASSERT_EQ(m.class_metrics.size(), 2u);
  uint64_t offered = 0, completed = 0, rejected = 0;
  for (const TenantClassMetrics& cm : m.class_metrics) {
    EXPECT_EQ(cm.offered, cm.completed + cm.rejected);
    offered += cm.offered;
    completed += cm.completed;
    rejected += cm.rejected;
  }
  EXPECT_EQ(offered, 80u);
  EXPECT_EQ(rejected, m.rejected_queries);
  EXPECT_EQ(completed, static_cast<uint64_t>(m.delays.count()));

  // Engine completed exactly what it admitted (no stuck requests).
  EXPECT_EQ(m.engine_stats.submitted, m.engine_stats.completed);

  // Backlog observables are monotone-sane: the high-water marks bound any
  // instantaneous value and an above-capacity burst must have queued.
  EXPECT_GT(m.engine_stats.peak_queue_depth, 0u);
  EXPECT_GE(m.engine_stats.peak_queue_age_s, 0.0);
  RunMetrics low = RunExperiment(OverloadSpec(/*rate=*/1.0, /*ladder=*/true));
  EXPECT_GE(m.engine_stats.peak_queue_depth, low.engine_stats.peak_queue_depth);

  // Rejections (if any at this spec) never touch the protected class, and
  // rejected records carry no result.
  for (const QueryRecord& rec : m.records) {
    if (rec.rejected) {
      EXPECT_EQ(m.class_metrics[static_cast<size_t>(rec.tenant)].name, "besteffort");
      EXPECT_DOUBLE_EQ(rec.e2e_delay, 0.0);
      EXPECT_EQ(rec.overload_level, static_cast<int>(OverloadLevel::kReject));
    }
  }
}

TEST(OverloadRunTest, LadderEngagesPastSaturationAndShedsWork) {
  RunMetrics off = RunExperiment(OverloadSpec(/*rate=*/64.0, /*ladder=*/false));
  RunMetrics on = RunExperiment(OverloadSpec(/*rate=*/64.0, /*ladder=*/true));

  // Ladder-off never rejects or degrades.
  EXPECT_EQ(off.rejected_queries, 0u);
  for (const QueryRecord& rec : off.records) {
    EXPECT_FALSE(rec.rejected);
    EXPECT_FALSE(rec.depth_shed);
    EXPECT_FALSE(rec.synthesis_degraded);
    EXPECT_EQ(rec.overload_level, 0);
  }

  // Ladder-on: some decision point saw a non-zero rung at 8x saturation.
  uint64_t engaged = 0, degraded = 0;
  for (const QueryRecord& rec : on.records) {
    engaged += rec.overload_level > 0 ? 1 : 0;
    degraded += rec.synthesis_degraded ? 1 : 0;
  }
  EXPECT_GT(engaged, 0u);
  EXPECT_GT(degraded, 0u);
  // And degradation pays: total goodput at least matches ladder-off.
  EXPECT_GE(on.goodput_qps, off.goodput_qps);
}

TEST(OverloadRunTest, FlagOffIsBitForBitIdenticalToNoTenantRun) {
  // Declaring SLO classes with the ladder disabled must not change ANY
  // behaviour: delays, F1, configs, and arrival times all match a run that
  // never heard of tenants (class routing uses its own Rng stream and the
  // controller is never constructed).
  RunSpec plain;
  plain.dataset = "musique";
  plain.num_queries = 40;
  plain.arrival_rate = 8.0;
  plain.system = SystemKind::kMetis;
  plain.seed = 42;

  RunSpec tenanted = plain;
  tenanted.tenants = {
      TenantClass{"interactive", /*priority=*/2, /*deadline_s=*/3.5, /*rate_share=*/0.3},
      TenantClass{"besteffort", /*priority=*/0, /*deadline_s=*/14.0, /*rate_share=*/0.7}};
  tenanted.overload.enabled = false;  // Flag off.

  RunMetrics a = RunExperiment(plain);
  RunMetrics b = RunExperiment(tenanted);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    const QueryRecord& ra = a.records[i];
    const QueryRecord& rb = b.records[i];
    EXPECT_EQ(ra.query_id, rb.query_id);
    EXPECT_DOUBLE_EQ(ra.arrival_time, rb.arrival_time);
    EXPECT_DOUBLE_EQ(ra.finish_time, rb.finish_time);
    EXPECT_DOUBLE_EQ(ra.e2e_delay, rb.e2e_delay);
    EXPECT_DOUBLE_EQ(ra.result.f1, rb.result.f1);
    EXPECT_EQ(ra.config, rb.config);
    EXPECT_FALSE(rb.rejected);
    EXPECT_EQ(rb.overload_level, 0);
  }
  EXPECT_DOUBLE_EQ(a.mean_f1(), b.mean_f1());
  EXPECT_DOUBLE_EQ(a.throughput_qps, b.throughput_qps);
  // Without deadlines goodput degenerates to throughput; with (unmissed)
  // deadline accounting it still reflects completions only.
  EXPECT_DOUBLE_EQ(a.goodput_qps, a.throughput_qps);
  // Per-class accounting covers all queries even with the ladder off.
  ASSERT_EQ(b.class_metrics.size(), 2u);
  EXPECT_EQ(b.class_metrics[0].offered + b.class_metrics[1].offered, 40u);
  EXPECT_EQ(b.rejected_queries, 0u);
}

TEST(OverloadRunTest, ReplayIsDeterministic) {
  RunMetrics a = RunExperiment(OverloadSpec(/*rate=*/64.0, /*ladder=*/true));
  RunMetrics b = RunExperiment(OverloadSpec(/*rate=*/64.0, /*ladder=*/true));
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].query_id, b.records[i].query_id);
    EXPECT_EQ(a.records[i].rejected, b.records[i].rejected);
    EXPECT_EQ(a.records[i].overload_level, b.records[i].overload_level);
    EXPECT_DOUBLE_EQ(a.records[i].e2e_delay, b.records[i].e2e_delay);
    EXPECT_DOUBLE_EQ(a.records[i].result.f1, b.records[i].result.f1);
  }
  EXPECT_EQ(a.rejected_queries, b.rejected_queries);
}

TEST(OverloadRunTest, TenantRoutingTracksRateShares) {
  RunMetrics m = RunExperiment(OverloadSpec(/*rate=*/4.0, /*ladder=*/false));
  ASSERT_EQ(m.class_metrics.size(), 2u);
  double interactive_frac =
      static_cast<double>(m.class_metrics[0].offered) / m.records.size();
  // 30/70 split, 80 draws: generous tolerance, deterministic value.
  EXPECT_NEAR(interactive_frac, 0.3, 0.15);
  EXPECT_GT(m.class_metrics[1].offered, m.class_metrics[0].offered);
}

}  // namespace
}  // namespace metis
