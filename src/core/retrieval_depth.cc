#include "src/core/retrieval_depth.h"

#include <algorithm>

#include "src/common/check.h"

namespace metis {

namespace {

// Profiles below this confidence get max_budget: never under-retrieve on a
// profile the §5 fallback would distrust.
constexpr double kMinConfidence = 0.5;

}  // namespace

RetrievalDepthPolicy::RetrievalDepthPolicy(RetrievalDepthPolicyOptions options)
    : options_(options) {
  METIS_CHECK_GE(options_.min_budget, 1u);
  METIS_CHECK_GE(options_.max_budget, options_.min_budget);
}

size_t RetrievalDepthPolicy::BudgetFor(const QueryProfile& profile) const {
  if (profile.confidence < kMinConfidence) {
    return options_.max_budget;
  }
  long pieces = std::max(profile.num_info_pieces, 1);
  long budget = static_cast<long>(options_.base_probes) +
                static_cast<long>(options_.probes_per_piece) * pieces;
  budget = std::clamp(budget, static_cast<long>(options_.min_budget),
                      static_cast<long>(options_.max_budget));
  return static_cast<size_t>(budget);
}

RetrievalQuality RetrievalDepthPolicy::QualityFor(const QueryProfile& profile) const {
  RetrievalQuality quality;
  quality.mode = options_.adaptive ? RetrievalQuality::ProbeMode::kAdaptive
                                   : RetrievalQuality::ProbeMode::kFixed;
  quality.nprobe = BudgetFor(profile);
  return quality;
}

RetrievalQuality RetrievalDepthPolicy::ClampToBudget(RetrievalQuality quality,
                                                     size_t budget_cap) {
  if (budget_cap == 0) {
    return quality;
  }
  size_t cap = std::max<size_t>(budget_cap, 1);
  if (quality.mode == RetrievalQuality::ProbeMode::kIndexDefault || quality.nprobe == 0) {
    // The index's own default depth is not visible here; shed to exactly the
    // cap (fixed mode) so the clamp is a hard ceiling, not a suggestion.
    quality.mode = RetrievalQuality::ProbeMode::kFixed;
    quality.nprobe = cap;
    return quality;
  }
  quality.nprobe = std::min(quality.nprobe, cap);
  return quality;
}

}  // namespace metis
