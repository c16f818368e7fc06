// Per-dataset retrieval-depth budget lines (the mixed-workload half of the
// METIS retrieval knob).
//
// PR 4 gave each QUERY its own probe budget via RetrievalDepthPolicy, but the
// mixed-workload path (RunMixedExperiment, the paper's §7.1 concurrent-dataset
// setup) still applied ONE JointSchedulerOptions::depth line to every dataset
// stack — even though the per-piece F1-vs-budget curves differ sharply per
// dataset profile. RAGGED (Hsia et al., 2024) measures exactly this
// workload-dependence of optimal retrieval depth, and RAG-Stack (Jiang, 2025)
// argues the quality/performance knobs must be co-tuned per corpus.
//
// DepthCalibrator derives a DATASET's budget line (base, slope, min, max):
//
//   - DeriveFromProfile: closed-form from the DatasetProfile statistics the
//     generator already publishes (max_facts, topic_fraction,
//     max_output_tokens) and the index's nlist. Zero-cost; the line mirrors
//     the measured PR 4 direction (descending in pieces) scaled to the
//     dataset's piece range and corpus geometry.
//   - Calibrate: offline probe-grid sweep on a held-out slice of the
//     dataset's queries — for each piece group, find the smallest budget
//     whose gold-chunk coverage matches the deepest grid budget's within a
//     tolerance, then fit the cheapest line that COVERS every group's
//     minimal budget (budget(p) >= target_p for all measured p, minimizing
//     expected probes). This mirrors how METIS prunes its configuration
//     space offline (§4.2): a small bounded probe pass before serving,
//     amortized across the whole run, that never under-provisions a
//     measured group.
//
// RunMixedExperiment consumes the calibrator when
// MixedRunSpec::per_dataset_depth is set; the flag off restores the shared
// line bit-for-bit (parity-tested in mixed_runner_test).

#ifndef METIS_SRC_CORE_DEPTH_CALIBRATOR_H_
#define METIS_SRC_CORE_DEPTH_CALIBRATOR_H_

#include <cstddef>
#include <vector>

#include "src/core/hybrid_router.h"
#include "src/core/retrieval_depth.h"
#include "src/workload/dataset.h"

namespace metis {

struct DepthCalibratorOptions {
  // Offline sweep: probe budgets to try, ascending. Entries above the
  // index's nlist clamp to it; empty uses {1, 2, 3, 4, 6, 8, 10, 12, 16}.
  std::vector<size_t> probe_grid;
  // Held-out slice: the first `holdout_queries` of the dataset's query list
  // (generation is deterministic, so this is a stable slice).
  size_t holdout_queries = 32;
  // Retrieval width used when measuring gold coverage.
  size_t top_k = 10;
  // A budget is "good enough" for a piece group when its mean gold-chunk
  // coverage is within this of the deepest grid budget's coverage. The 0
  // default never trades coverage for probes: a group's minimal budget is
  // the start of its coverage plateau.
  double coverage_tolerance = 0.0;
  // Probe mode written into the fitted options (see
  // RetrievalDepthPolicyOptions::adaptive).
  bool adaptive = true;
  // Copied into the fitted options (confidence fallback threshold).
  double min_confidence = 0.5;
  // Hybrid-weight sweep (CalibrateHybridWeights): dense weights of the FUSED
  // candidates tried per task type, on top of the always-included
  // single-backend candidates {1,0} and {0,1}. Empty = {0.4, 0.5, 0.6}.
  std::vector<float> hybrid_weight_grid;
  // A candidate is "good enough" for a task type when its mean gold coverage
  // is within this of the best candidate's; among good-enough candidates the
  // CHEAPEST wins (lexical-only < dense-only < fused).
  double hybrid_coverage_tolerance = 0.0;
};

class DepthCalibrator {
 public:
  explicit DepthCalibrator(DepthCalibratorOptions options = {});

  // Closed-form line from the dataset's Table-1 profile statistics; `nlist`
  // is the serving index's list count (the depth axis ceiling).
  RetrievalDepthPolicyOptions DeriveFromProfile(const DatasetProfile& profile,
                                                size_t nlist) const;

  // Offline probe-grid calibration against the dataset's own index and gold
  // labels (see header comment). Requires the IVF backend; returns
  // DeriveFromProfile's line when the dataset is served flat (the options are
  // inert there anyway). NOTE: probing perturbs the index's probe counters —
  // callers that report probe stats must ResetProbeStats() after calibrating.
  RetrievalDepthPolicyOptions Calibrate(const Dataset& dataset) const;

  // The grid actually swept for an index with `nlist` lists: the configured
  // (or default) grid, clamped to nlist and deduplicated, ascending.
  std::vector<size_t> GridFor(size_t nlist) const;

  // Hybrid-weight calibration (the calibration axis for WHICH backend).
  // Classifies the holdout queries by task type (ClassifyTaskType on the
  // query text — the same RNG-free cue parse the serving profiler runs),
  // measures each weight candidate's mean gold-chunk coverage per type, and
  // writes the per-type winner into a copy of `base` with enabled set.
  // Ties break toward the CHEAPER candidate (lexical-only, then dense-only,
  // then fused — "a backend we don't scan is free"). Temporal queries that
  // parse a time bucket are measured with the metadata filter attached when
  // base.use_metadata_filter. A dataset whose database built no lexical
  // index returns `base` unchanged (there is nothing to route to).
  HybridRouterOptions CalibrateHybridWeights(const Dataset& dataset,
                                             const HybridRouterOptions& base = {}) const;

  const DepthCalibratorOptions& options() const { return options_; }

 private:
  DepthCalibratorOptions options_;
};

}  // namespace metis

#endif  // METIS_SRC_CORE_DEPTH_CALIBRATOR_H_
