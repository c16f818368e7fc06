#include "src/core/overload.h"

#include <algorithm>

#include "src/common/check.h"

namespace metis {

OverloadController::OverloadController(const LlmEngine* engine,
                                       std::vector<TenantClass> classes,
                                       OverloadOptions options)
    : engine_(engine), classes_(std::move(classes)), options_(options) {
  METIS_CHECK(engine != nullptr);
  METIS_CHECK_GT(options_.queue_depth_ref, 0.0);
  METIS_CHECK_GT(options_.queue_age_ref_s, 0.0);
  METIS_CHECK_GE(options_.cheap_synthesis_at, options_.shed_depth_at);
  METIS_CHECK_GE(options_.reject_at, options_.cheap_synthesis_at);
  METIS_CHECK_GE(options_.backoff_initial, 1u);
  METIS_CHECK_GE(options_.backoff_max, options_.backoff_initial);
  backoff_.resize(std::max<size_t>(classes_.size(), 1));
}

const TenantClass& OverloadController::tenant(int index) const {
  if (index >= 0 && static_cast<size_t>(index) < classes_.size()) {
    return classes_[static_cast<size_t>(index)];
  }
  return default_class_;
}

double OverloadController::Pressure() const {
  double depth_term =
      static_cast<double>(engine_->queue_depth()) / options_.queue_depth_ref;
  double age_term = engine_->oldest_waiting_age() / options_.queue_age_ref_s;
  double deficit = 0;
  double total = engine_->total_kv_bytes();
  if (total > 0) {
    deficit = std::max(0.0, -engine_->projected_free_kv_bytes() / total);
  }
  return depth_term + age_term + options_.kv_deficit_weight * deficit;
}

OverloadLevel OverloadController::Assess() {
  double pressure = Pressure();
  OverloadLevel level = OverloadLevel::kNone;
  if (pressure >= options_.reject_at) {
    level = OverloadLevel::kReject;
  } else if (pressure >= options_.cheap_synthesis_at) {
    level = OverloadLevel::kCheapSynthesis;
  } else if (pressure >= options_.shed_depth_at) {
    level = OverloadLevel::kShedDepth;
  }
  ++stats_.assessments;
  stats_.peak_pressure = std::max(stats_.peak_pressure, pressure);
  stats_.max_level = std::max(stats_.max_level, static_cast<int>(level));
  bool reject_now = level == OverloadLevel::kReject;
  if (in_reject_ && !reject_now) {
    // Recovered: the next reject episode starts its backoff fresh.
    for (Backoff& b : backoff_) {
      b = Backoff{};
    }
  }
  in_reject_ = reject_now;
  return level;
}

bool OverloadController::Admit(int tenant_index, OverloadLevel level) {
  const TenantClass& cls = tenant(tenant_index);
  if (level < OverloadLevel::kReject || cls.priority >= options_.protect_priority) {
    ++stats_.admitted;
    return true;
  }
  size_t slot = 0;
  if (tenant_index >= 0 && static_cast<size_t>(tenant_index) < classes_.size()) {
    slot = static_cast<size_t>(tenant_index);
  }
  Backoff& b = backoff_[slot];
  if (b.countdown > 0) {
    --b.countdown;
    ++stats_.rejected;
    return false;
  }
  // Admit one probe, then back off for a doubling stride: sustained overload
  // converges to a 1-in-backoff_max trickle per class; any recovery (Assess
  // leaving kReject) resets the stride.
  b.stride = b.stride == 0 ? options_.backoff_initial
                           : std::min(b.stride * 2, options_.backoff_max);
  b.countdown = b.stride - 1;
  ++stats_.admitted;
  return true;
}

}  // namespace metis
