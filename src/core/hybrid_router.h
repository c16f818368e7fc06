// Profile-routed hybrid retrieval: task type -> per-backend ensemble weights.
//
// The newest scheduled knob (after depth and synthesis method):
// WHICH retriever serves a query. The profiler classifies each query's task
// type from its text (QueryTaskType, RNG-free keyword cues); the router maps
// the type to (dense weight, lexical weight) and — for temporal queries that
// carry a parsed time bucket — attaches a metadata filter. The database fuses
// the weighted backends' candidate lists by deterministic weighted
// reciprocal-rank fusion (vectordb.cc).
//
// Pure-dense routes (lexical weight 0, no filter) return the base quality
// UNTOUCHED, so a router whose table sends a type dense-only is bit-identical
// to no router at all for those queries — and a weight-0 backend is provably
// never scanned (hybrid_router_test.cc).
//
// The weight table is per-dataset calibratable (DepthCalibrator::
// CalibrateHybridWeights sweeps a weight grid on holdout gold coverage) and
// clamped by the overload ladder: at the shed-depth rung and above, fused
// queries collapse to their cheapest single backend (ShedToSingleBackend).

#ifndef METIS_SRC_CORE_HYBRID_ROUTER_H_
#define METIS_SRC_CORE_HYBRID_ROUTER_H_

#include "src/profiler/profiler.h"
#include "src/vectordb/vectordb.h"

namespace metis {

struct HybridBackendWeights {
  float dense = 1.0f;
  float lexical = 0.0f;
};

struct HybridRouterOptions {
  // Off (default): Route() returns the base quality untouched — bit-parity
  // with the dense-only stack.
  bool enabled = false;
  // Per-task-type weight table. Defaults encode the routing intuition the
  // calibrator refines: factual lookups live on exact term matches, semantic
  // questions on the embedding space, temporal/comparative spread evidence.
  HybridBackendWeights factual{0.0f, 1.0f};
  HybridBackendWeights semantic{1.0f, 0.0f};
  HybridBackendWeights temporal{0.5f, 0.5f};
  // Lexical-leaning: in a comparative fusion the lexical list carries ALL the
  // enumerated facts while the dense list carries only the topically-heavy
  // ones, so lexical-only ranks must outvote dense-only junk at equal depth.
  HybridBackendWeights comparative{0.4f, 0.6f};
  // Attach a time-bucket metadata filter to temporal queries whose profile
  // parsed a "period<b>" cue.
  bool use_metadata_filter = true;
};

class HybridRouter {
 public:
  explicit HybridRouter(HybridRouterOptions options) : options_(options) {}

  const HybridRouterOptions& options() const { return options_; }

  // Applies the profile's task-type route to `base` (the scheduler's
  // depth decision, which stays in force for the dense leg).
  // Disabled, or routed pure-dense with no filter: returns `base` untouched.
  RetrievalQuality Route(const QueryProfile& profile, const RetrievalQuality& base) const;

  // The weight row for one task type.
  HybridBackendWeights WeightsFor(QueryTaskType type) const;

  // Overload clamp: collapses a fused quality to its cheapest single backend
  // (the higher-weight one; ties go lexical — postings scans are cheaper than
  // dense row sweeps). Keeps any metadata filter: filters only shrink scans.
  // Non-hybrid qualities pass through unchanged.
  static RetrievalQuality ShedToSingleBackend(const RetrievalQuality& quality);

 private:
  HybridRouterOptions options_;
};

}  // namespace metis

#endif  // METIS_SRC_CORE_HYBRID_ROUTER_H_
