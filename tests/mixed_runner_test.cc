// Mixed-workload runner: per-dataset depth policies (DepthCalibrator +
// MixedRunSpec::per_dataset_depth) and the RunMixedExperiment accounting
// contracts —
//
//   - repeated dataset names keep per-stack probe accounting (no shared-index
//     cross-talk through the dataset cache),
//   - sim_duration / throughput_qps use each dataset's OWN first arrival, and
//     metrics.spec is populated like RunExperiment's,
//   - per_dataset_depth=false replays the shared-curve mixed run bit-for-bit
//     no matter what the per-dataset fields hold, and the flat backend
//     ignores the new options entirely,
//   - the calibrator derives sane covering lines (and degrades gracefully on
//     flat backends).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/depth_calibrator.h"
#include "src/runner/runner.h"
#include "src/workload/dataset.h"

namespace metis {
namespace {

// Bit-identical simulation outcome: every served query's timing, quality,
// and config agree exactly, as do the probe counters.
void ExpectRunsBitIdentical(const std::vector<RunMetrics>& a,
                            const std::vector<RunMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t d = 0; d < a.size(); ++d) {
    ASSERT_EQ(a[d].records.size(), b[d].records.size()) << "dataset " << d;
    for (size_t i = 0; i < a[d].records.size(); ++i) {
      const QueryRecord& ra = a[d].records[i];
      const QueryRecord& rb = b[d].records[i];
      EXPECT_EQ(ra.query_id, rb.query_id) << "dataset " << d << " record " << i;
      EXPECT_EQ(ra.result.f1, rb.result.f1) << "dataset " << d << " record " << i;
      EXPECT_EQ(ra.finish_time, rb.finish_time) << "dataset " << d << " record " << i;
      EXPECT_EQ(ra.e2e_delay, rb.e2e_delay) << "dataset " << d << " record " << i;
      EXPECT_TRUE(ra.config == rb.config) << "dataset " << d << " record " << i;
    }
    EXPECT_EQ(a[d].mean_probes, b[d].mean_probes) << "dataset " << d;
    EXPECT_EQ(a[d].probe_histogram, b[d].probe_histogram) << "dataset " << d;
    EXPECT_EQ(a[d].sim_duration, b[d].sim_duration) << "dataset " << d;
    EXPECT_EQ(a[d].throughput_qps, b[d].throughput_qps) << "dataset " << d;
  }
}

MixedRunSpec IvfSpec() {
  MixedRunSpec spec;
  spec.queries_per_dataset = 20;
  spec.seed = 11;
  spec.retrieval.backend = RetrievalIndexOptions::Backend::kIvf;
  spec.retrieval.nlist = 8;
  spec.retrieval.nprobe = 2;
  return spec;
}

TEST(MixedRunnerTest, DuplicateDatasetsKeepPerStackProbeStats) {
  MixedRunSpec spec = IvfSpec();
  spec.datasets = {"squad", "squad"};
  spec.system = SystemKind::kVllmFixed;
  spec.fixed_configs = {RagConfig{SynthesisMethod::kStuff, 4, 0}};
  // Fixed budget B: every search probes exactly B lists, so per-stack
  // accounting is exactly countable.
  spec.scheduler.adaptive_nprobe = false;
  spec.scheduler.nprobe_budget = 3;

  auto results = RunMixedExperiment(spec);
  ASSERT_EQ(results.size(), 2u);
  for (size_t d = 0; d < results.size(); ++d) {
    EXPECT_EQ(results[d].records.size(), 20u) << "stack " << d;
    // One retrieval per query at exactly 3 probes. Before the fix, both
    // stacks read ONE shared index whose counters commingled 40 searches.
    EXPECT_DOUBLE_EQ(results[d].mean_probes, 3.0) << "stack " << d;
    ASSERT_LT(3u, results[d].probe_histogram.size());
    EXPECT_EQ(results[d].probe_histogram[3], 20u) << "stack " << d;
    uint64_t total = 0;
    for (uint64_t bucket : results[d].probe_histogram) {
      total += bucket;
    }
    EXPECT_EQ(total, 20u) << "stack " << d;
  }
  // Identical workloads on a fair shared engine: both stacks served fully.
  EXPECT_EQ(results[0].records.size(), results[1].records.size());
}

TEST(MixedRunnerTest, SimDurationAndSpecArePerDataset) {
  MixedRunSpec spec;
  spec.datasets = {"squad", "musique"};
  spec.queries_per_dataset = 25;
  spec.rate_per_dataset = 1.5;
  spec.seed = 11;
  spec.system = SystemKind::kMetis;

  auto results = RunMixedExperiment(spec);
  ASSERT_EQ(results.size(), 2u);
  for (size_t d = 0; d < results.size(); ++d) {
    const RunMetrics& m = results[d];
    ASSERT_FALSE(m.records.empty());
    // The dataset's own serving window, recoverable from its records
    // (arrival = finish - e2e delay).
    double first_arrival = m.records[0].finish_time - m.records[0].e2e_delay;
    double last_finish = m.records[0].finish_time;
    for (const QueryRecord& rec : m.records) {
      first_arrival = std::min(first_arrival, rec.finish_time - rec.e2e_delay);
      last_finish = std::max(last_finish, rec.finish_time);
    }
    EXPECT_NEAR(m.sim_duration, last_finish - first_arrival, 1e-9) << "dataset " << d;
    EXPECT_NEAR(m.throughput_qps,
                static_cast<double>(m.records.size()) / m.sim_duration, 1e-12)
        << "dataset " << d;
    // metrics.spec mirrors the equivalent single-dataset RunSpec.
    EXPECT_EQ(m.spec.dataset, spec.datasets[d]);
    EXPECT_EQ(m.spec.num_queries, spec.queries_per_dataset);
    EXPECT_EQ(m.spec.arrival_rate, spec.rate_per_dataset);
    EXPECT_EQ(m.spec.system, spec.system);
    EXPECT_EQ(m.spec.seed, spec.seed);
  }
  // The two datasets' Poisson streams start at different instants, so the
  // per-dataset windows must genuinely differ.
  EXPECT_NE(results[0].sim_duration, results[1].sim_duration);
}

// per_dataset_depth=false must replay the shared-curve run bit-for-bit no
// matter what the per-dataset fields are set to.
TEST(MixedRunnerTest, PerDatasetFieldsInertWhenFlagOff) {
  MixedRunSpec base = IvfSpec();
  base.datasets = {"squad", "musique"};
  base.system = SystemKind::kMetis;
  auto want = RunMixedExperiment(base);

  MixedRunSpec loaded = base;
  loaded.per_dataset_depth = false;  // Explicitly off.
  loaded.depth_calibration = MixedRunSpec::DepthCalibration::kOffline;
  loaded.calibrator.holdout_queries = 5;
  auto got = RunMixedExperiment(loaded);

  ExpectRunsBitIdentical(want, got);
}

// The flat (exact) backend has no probe knob: engaging per-dataset depth must
// not change a single result.
TEST(MixedRunnerTest, FlatBackendIgnoresPerDatasetDepth) {
  MixedRunSpec base;
  base.datasets = {"squad", "qmsum"};
  base.queries_per_dataset = 20;
  base.seed = 11;
  base.system = SystemKind::kMetis;
  ASSERT_EQ(base.retrieval.backend, RetrievalIndexOptions::Backend::kFlat);
  auto want = RunMixedExperiment(base);

  for (auto mode : {MixedRunSpec::DepthCalibration::kProfile,
                    MixedRunSpec::DepthCalibration::kOffline}) {
    MixedRunSpec on = base;
    on.per_dataset_depth = true;
    on.depth_calibration = mode;
    auto got = RunMixedExperiment(on);
    ExpectRunsBitIdentical(want, got);
  }
}

// Engaged on the IVF backend, per-dataset lines must actually reach the
// index: the per-stack probe distributions change.
TEST(MixedRunnerTest, PerDatasetDepthChangesIvfProbes) {
  MixedRunSpec base = IvfSpec();
  base.datasets = {"squad", "qmsum"};
  base.system = SystemKind::kMetis;
  // Shared curve pinned at full depth, fixed probe mode, so any change can
  // only come from the per-dataset lines.
  base.scheduler.depth.base_probes = 8;
  base.scheduler.depth.probes_per_piece = 0;
  base.scheduler.depth.min_budget = 8;
  base.scheduler.depth.max_budget = 8;
  base.scheduler.depth.adaptive = false;
  base.calibrator.adaptive = false;
  auto shared = RunMixedExperiment(base);

  MixedRunSpec on = base;
  on.per_dataset_depth = true;
  on.depth_calibration = MixedRunSpec::DepthCalibration::kProfile;
  auto per_dataset = RunMixedExperiment(on);

  ASSERT_EQ(shared.size(), per_dataset.size());
  for (size_t d = 0; d < shared.size(); ++d) {
    EXPECT_DOUBLE_EQ(shared[d].mean_probes, 8.0) << "dataset " << d;
  }
  // qmsum's profile-derived line (long outputs, many pieces) is shallower
  // than 8 across its piece range; squad's keeps deep scans for lookups.
  bool any_changed = false;
  for (size_t d = 0; d < per_dataset.size(); ++d) {
    any_changed = any_changed || per_dataset[d].mean_probes != shared[d].mean_probes;
  }
  EXPECT_TRUE(any_changed);
}

TEST(MixedRunnerTest, ProfileModeResolvesEachStackToItsDerivedLine) {
  MixedRunSpec spec = IvfSpec();
  spec.datasets = {"squad", "musique"};
  spec.system = SystemKind::kMetis;
  spec.per_dataset_depth = true;
  MixedRunSpec off = spec;
  off.per_dataset_depth = false;

  DepthCalibrator calibrator(spec.calibrator);
  for (const std::string& name : spec.datasets) {
    auto dataset = GetOrGenerateDataset(name, spec.queries_per_dataset, spec.embedding_model,
                                        spec.seed, spec.retrieval);
    JointSchedulerOptions got = EffectiveSchedulerOptions(spec, *dataset);
    RetrievalDepthPolicyOptions derived =
        calibrator.DeriveFromProfile(dataset->profile(), spec.retrieval.nlist);
    EXPECT_EQ(got.depth.base_probes, derived.base_probes) << name;
    EXPECT_EQ(got.depth.probes_per_piece, derived.probes_per_piece) << name;
    EXPECT_EQ(got.depth.min_budget, derived.min_budget) << name;
    EXPECT_EQ(got.depth.max_budget, derived.max_budget) << name;

    JointSchedulerOptions shared = EffectiveSchedulerOptions(off, *dataset);
    EXPECT_EQ(shared.depth.base_probes, spec.scheduler.depth.base_probes) << name;
    EXPECT_EQ(shared.depth.max_budget, spec.scheduler.depth.max_budget) << name;
  }
}

TEST(DepthCalibratorTest, DeriveFromProfileTracksDatasetShape) {
  DepthCalibrator calibrator;
  const size_t nlist = 16;
  RetrievalDepthPolicyOptions squad =
      calibrator.DeriveFromProfile(GetDatasetProfile("squad_topical"), nlist);
  RetrievalDepthPolicyOptions qmsum =
      calibrator.DeriveFromProfile(GetDatasetProfile("qmsum_topical"), nlist);
  // Short-answer lookups may scan every list; long-output summarization is
  // capped below nlist.
  EXPECT_EQ(squad.max_budget, nlist);
  EXPECT_LT(qmsum.max_budget, nlist);
  // Both descend in pieces, qmsum more gently (wider piece range).
  EXPECT_LT(squad.probes_per_piece, 0);
  EXPECT_LT(qmsum.probes_per_piece, 0);
  EXPECT_LE(squad.probes_per_piece, qmsum.probes_per_piece);
  // Diffuse geometry keeps a higher floor than the topical variant.
  RetrievalDepthPolicyOptions diffuse =
      calibrator.DeriveFromProfile(GetDatasetProfile("squad"), nlist);
  EXPECT_GT(diffuse.min_budget, squad.min_budget);
  // p = 1 gets the full cap on every derived line.
  EXPECT_EQ(static_cast<long>(squad.base_probes) + squad.probes_per_piece,
            static_cast<long>(squad.max_budget));
  // nlist 0 (flat backend) keeps the inert defaults.
  RetrievalDepthPolicyOptions flat =
      calibrator.DeriveFromProfile(GetDatasetProfile("squad"), 0);
  EXPECT_EQ(flat.base_probes, RetrievalDepthPolicyOptions{}.base_probes);
}

TEST(DepthCalibratorTest, GridClampsAndDeduplicates) {
  EXPECT_EQ(DepthCalibrator::GridFor(64), (std::vector<size_t>{1, 2, 3, 4, 6, 8, 10, 12, 16}));
  EXPECT_EQ(DepthCalibrator::GridFor(5), (std::vector<size_t>{1, 2, 3, 4, 5}));
  // Degenerate nlist: everything clamps to one list.
  EXPECT_EQ(DepthCalibrator::GridFor(0), (std::vector<size_t>{1}));
}

TEST(DepthCalibratorTest, CalibrateFitsCoveringLineOnIvf) {
  RetrievalIndexOptions ivf;
  ivf.backend = RetrievalIndexOptions::Backend::kIvf;
  ivf.nlist = 8;
  ivf.nprobe = 2;
  auto dataset = GetOrGenerateDataset("musique_topical", 40, "cohere-embed-v3-sim", 7, ivf);
  DepthCalibratorOptions options;
  options.holdout_queries = 40;
  options.adaptive = false;
  DepthCalibrator calibrator(options);
  RetrievalDepthPolicyOptions line = calibrator.Calibrate(*dataset);
  // A valid covering line over the 8-list index: bounds inside the grid,
  // non-ascending slope (fail-safe under piece under-estimates), fixed mode
  // as configured.
  EXPECT_GE(line.min_budget, 1u);
  EXPECT_LE(line.max_budget, 8u);
  EXPECT_GE(line.max_budget, line.min_budget);
  EXPECT_LE(line.probes_per_piece, 0);
  EXPECT_FALSE(line.adaptive);
  // Deterministic: calibrating twice fits the same line.
  RetrievalDepthPolicyOptions again = calibrator.Calibrate(*dataset);
  EXPECT_EQ(line.base_probes, again.base_probes);
  EXPECT_EQ(line.probes_per_piece, again.probes_per_piece);
  EXPECT_EQ(line.min_budget, again.min_budget);
  EXPECT_EQ(line.max_budget, again.max_budget);
}

TEST(DepthCalibratorTest, CalibrateOnFlatFallsBackToProfileLine) {
  auto dataset = GetOrGenerateDataset("squad", 20, "cohere-embed-v3-sim", 7);
  DepthCalibrator calibrator;
  RetrievalDepthPolicyOptions line = calibrator.Calibrate(*dataset);
  RetrievalDepthPolicyOptions derived = calibrator.DeriveFromProfile(dataset->profile(), 0);
  EXPECT_EQ(line.base_probes, derived.base_probes);
  EXPECT_EQ(line.probes_per_piece, derived.probes_per_piece);
}

// A mix is open loop only: a non-positive rate is rejected up front, before
// any dataset is generated, instead of reaching the closed-loop path that
// would send every dataset's queries at t = 0.
TEST(MixedRunnerDeathTest, NonPositiveRateDies) {
  for (double rate : {0.0, -1.0}) {
    MixedRunSpec spec;
    spec.datasets = {"squad"};
    spec.queries_per_dataset = 4;
    spec.rate_per_dataset = rate;
    EXPECT_DEATH(RunMixedExperiment(spec), "rate_per_dataset") << "rate " << rate;
  }
}

TEST(MixedRunnerTest, ClearDatasetCacheDropsEntries) {
  auto a = GetOrGenerateDataset("squad", 15, "cohere-embed-v3-sim", 3);
  auto b = GetOrGenerateDataset("squad", 15, "cohere-embed-v3-sim", 3);
  EXPECT_EQ(a.get(), b.get());
  ClearDatasetCache();
  auto c = GetOrGenerateDataset("squad", 15, "cohere-embed-v3-sim", 3);
  EXPECT_NE(a.get(), c.get());  // Regenerated; `a` stays alive through its ref.
  EXPECT_EQ(a->queries().size(), c->queries().size());
}

// Pins the per-dataset arrival seeding: dataset d's stream is the historical
// Poisson stream under seed SplitMix64(spec.seed ^ (0xD00D + d)) — mixed
// through SplitMix64 so structurally related spec seeds (e.g. seed and
// seed ^ 1) cannot produce correlated per-dataset streams the way the old
// raw `seed ^ (0xD00D + d)` Rng seeding could.
TEST(MixedRunnerTest, PerDatasetArrivalStreamsUseSplitMixedSeeds) {
  MixedRunSpec spec;
  spec.datasets = {"squad", "musique"};
  spec.queries_per_dataset = 25;
  spec.rate_per_dataset = 1.5;
  spec.seed = 11;
  spec.system = SystemKind::kMetis;

  auto results = RunMixedExperiment(spec);
  ASSERT_EQ(results.size(), 2u);
  for (size_t d = 0; d < results.size(); ++d) {
    uint64_t state = spec.seed ^ (0xD00Dull + static_cast<uint64_t>(d));
    std::vector<RagQuery> expected(static_cast<size_t>(spec.queries_per_dataset));
    AssignPoissonArrivals(expected, spec.rate_per_dataset, SplitMix64(state));
    std::vector<double> want, got;
    for (const RagQuery& q : expected) {
      want.push_back(q.arrival_time);
    }
    for (const QueryRecord& rec : results[d].records) {
      got.push_back(rec.arrival_time);
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(want.size(), got.size()) << "dataset " << d;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_DOUBLE_EQ(want[i], got[i]) << "dataset " << d << " arrival " << i;
    }
  }
}

}  // namespace
}  // namespace metis
