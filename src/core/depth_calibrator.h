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
//     whose gold-chunk coverage matches the deepest grid budget's (the
//     start of the group's coverage plateau), then fit the cheapest line
//     that COVERS every group's minimal budget (budget(p) >= target_p for
//     all measured p, minimizing expected probes). This mirrors how METIS prunes its configuration
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

#include "src/core/retrieval_depth.h"
#include "src/workload/dataset.h"

namespace metis {

struct DepthCalibratorOptions {
  // Held-out slice: the first `holdout_queries` of the dataset's query list
  // (generation is deterministic, so this is a stable slice).
  size_t holdout_queries = 32;
  // Probe mode written into the fitted options (see
  // RetrievalDepthPolicyOptions::adaptive).
  bool adaptive = true;
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

  // The grid actually swept for an index with `nlist` lists: the probe
  // budgets {1, 2, 3, 4, 6, 8, 10, 12, 16}, clamped to nlist and
  // deduplicated, ascending.
  static std::vector<size_t> GridFor(size_t nlist);

 private:
  DepthCalibratorOptions options_;
};

}  // namespace metis

#endif  // METIS_SRC_CORE_DEPTH_CALIBRATOR_H_
