#include "src/core/hybrid_router.h"

namespace metis {

HybridBackendWeights HybridRouter::WeightsFor(QueryTaskType type) const {
  switch (type) {
    case QueryTaskType::kFactual:
      return options_.factual;
    case QueryTaskType::kSemantic:
      return options_.semantic;
    case QueryTaskType::kTemporal:
      return options_.temporal;
    case QueryTaskType::kComparative:
      return options_.comparative;
  }
  return options_.factual;
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
