#include "src/core/hybrid_router.h"

namespace metis {

namespace {

// The weight table, indexed by QueryTaskType: factual lookups live on exact
// term matches, semantic questions on the embedding space, temporal ones
// spread their evidence evenly. Comparative leans lexical: in a comparative
// fusion the lexical list carries ALL the enumerated facts while the dense
// list carries only the topically-heavy ones, so lexical-only ranks must
// outvote dense-only junk at equal depth.
constexpr HybridBackendWeights kWeightTable[kNumQueryTaskTypes] = {
    {0.0f, 1.0f},  // kFactual
    {1.0f, 0.0f},  // kSemantic
    {0.5f, 0.5f},  // kTemporal
    {0.4f, 0.6f},  // kComparative
};

}  // namespace

HybridBackendWeights HybridRouter::WeightsFor(QueryTaskType type) {
  return kWeightTable[static_cast<size_t>(type)];
}

RetrievalQuality HybridRouter::Route(const QueryProfile& profile,
                                     const RetrievalQuality& base) const {
  if (!options_.enabled) {
    return base;
  }
  HybridBackendWeights w = WeightsFor(profile.task_type);
  bool want_filter = profile.task_type == QueryTaskType::kTemporal && profile.time_bucket >= 0;
  if (w.lexical <= 0 && !want_filter) {
    // Pure dense, no filter: the base quality verbatim — these queries never
    // leave the fast path, and a weight-0 lexical backend is never scanned.
    return base;
  }
  RetrievalQuality routed = base;
  routed.hybrid = true;
  routed.dense_weight = w.dense;
  routed.lexical_weight = w.lexical;
  if (want_filter) {
    routed.filter.time_bucket = profile.time_bucket;
  }
  return routed;
}

RetrievalQuality HybridRouter::ShedToSingleBackend(const RetrievalQuality& quality) {
  if (!quality.hybrid || quality.dense_weight <= 0 || quality.lexical_weight <= 0) {
    return quality;  // Already single-backend (or not hybrid): nothing to shed.
  }
  RetrievalQuality shed = quality;
  if (quality.dense_weight > quality.lexical_weight) {
    shed.lexical_weight = 0;
  } else {
    shed.dense_weight = 0;  // Ties go lexical: the cheaper scan.
  }
  return shed;
}

}  // namespace metis
