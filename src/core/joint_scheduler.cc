#include "src/core/joint_scheduler.h"

#include <algorithm>

#include "src/common/check.h"

namespace metis {

RetrievalQuality RetrievalQualityFromOptions(const JointSchedulerOptions& options) {
  RetrievalQuality quality;
  quality.mode = options.adaptive_nprobe ? RetrievalQuality::ProbeMode::kAdaptive
                                         : RetrievalQuality::ProbeMode::kFixed;
  quality.nprobe = options.nprobe_budget;
  return quality;
}

JointScheduler::JointScheduler(const LlmEngine* engine, const SynthesisExecutor* executor,
                               int intermediate_stride, JointSchedulerOptions options)
    : engine_(engine),
      executor_(executor),
      intermediate_stride_(intermediate_stride),
      options_(options),
      depth_policy_(options.depth) {
  METIS_CHECK(engine != nullptr);
  METIS_CHECK(executor != nullptr);
  METIS_CHECK_GT(intermediate_stride, 0);
}

RetrievalQuality JointScheduler::RetrievalQualityFor(const QueryProfile& profile) const {
  RetrievalQuality quality = options_.per_query_depth ? depth_policy_.QualityFor(profile)
                                                      : RetrievalQualityFromOptions(options_);
  if (options_.hybrid.enabled) {
    // The backend mix composes on top of the depth decision: the dense leg
    // keeps its probe budget.
    quality = HybridRouter(options_.hybrid).Route(profile, quality);
  }
  return quality;
}

double JointScheduler::PeakBytes(const RagConfig& config, int query_tokens,
                                 int output_estimate) const {
  switch (config.method) {
    case SynthesisMethod::kStuff: {
      int prompt = executor_->StuffPromptTokens(query_tokens, config.num_chunks);
      return engine_->BytesNeededFor(prompt, output_estimate);
    }
    case SynthesisMethod::kMapRerank: {
      // Mappers are independent single-chunk calls; the engine admits them
      // piecewise, so the schedulable unit is one mapper.
      int prompt = executor_->MapperPromptTokens(query_tokens);
      return engine_->BytesNeededFor(prompt, output_estimate);
    }
    case SynthesisMethod::kMapReduce: {
      int mapper = executor_->MapperPromptTokens(query_tokens);
      int reduce = executor_->ReducePromptTokens(query_tokens, config.num_chunks,
                                                 config.intermediate_tokens);
      double mapper_bytes = engine_->BytesNeededFor(mapper, config.intermediate_tokens);
      double reduce_bytes = engine_->BytesNeededFor(reduce, output_estimate);
      return std::max(mapper_bytes, reduce_bytes);
    }
  }
  METIS_CHECK(false && "unreachable");
  return 0;
}

double JointScheduler::TotalBytes(const RagConfig& config, int query_tokens,
                                  int output_estimate) const {
  switch (config.method) {
    case SynthesisMethod::kStuff:
      return PeakBytes(config, query_tokens, output_estimate);
    case SynthesisMethod::kMapRerank: {
      int prompt = executor_->MapperPromptTokens(query_tokens);
      return config.num_chunks * engine_->BytesNeededFor(prompt, output_estimate);
    }
    case SynthesisMethod::kMapReduce: {
      int mapper = executor_->MapperPromptTokens(query_tokens);
      int reduce = executor_->ReducePromptTokens(query_tokens, config.num_chunks,
                                                 config.intermediate_tokens);
      return config.num_chunks * engine_->BytesNeededFor(mapper, config.intermediate_tokens) +
             engine_->BytesNeededFor(reduce, output_estimate);
    }
  }
  METIS_CHECK(false && "unreachable");
  return 0;
}

double JointScheduler::PredictedPrefixHitFrac() const {
  if (!options_.cross_query_prefix) {
    return 0;
  }
  const EngineStats& s = engine_->stats();
  double denom = static_cast<double>(s.prefill_tokens + s.prefill_tokens_saved);
  if (denom <= 0) {
    return 0;
  }
  return static_cast<double>(s.prefill_tokens_saved) / denom;
}

int JointScheduler::SharedPrefixTokens(const RagConfig& config, int query_tokens) const {
  if (!options_.cross_query_prefix) {
    return 0;
  }
  // Canonical layout: everything before the query tail is shared — the
  // instruction plus the chunk block (stuff) or one chunk (mapper unit).
  switch (config.method) {
    case SynthesisMethod::kStuff:
      return executor_->StuffPromptTokens(query_tokens, config.num_chunks) - query_tokens;
    case SynthesisMethod::kMapRerank:
    case SynthesisMethod::kMapReduce:
      return executor_->MapperPromptTokens(query_tokens) - query_tokens;
  }
  METIS_CHECK(false && "unreachable");
  return 0;
}

double JointScheduler::EstimatedServiceSeconds(const RagConfig& config, int query_tokens,
                                               int output_estimate) const {
  const ModelSpec& m = engine_->model();
  double hit = PredictedPrefixHitFrac();
  // Prefill compute serializes through the step token budget; the quadratic
  // attention term sums positions 0..prompt (~prompt^2 / 2). A resident
  // prefix skips BOTH for its tokens, hence the discount on `prompt` itself.
  auto prefill_s = [&](int prompt, int shared) {
    double effective = prompt - hit * shared;
    return effective / m.prefill_tokens_per_sec +
           m.attn_prefill_coeff * 0.5 * effective * effective;
  };
  // Decodes overlap with the running batch, so the per-step weight-read
  // overhead amortizes; attention still pays the full context per token.
  double batch = std::max<double>(1.0, static_cast<double>(engine_->running_count()));
  auto decode_s = [&](int prompt, int output) {
    return output * (m.step_overhead_sec / batch +
                     m.attn_decode_coeff * (prompt + 0.5 * output));
  };
  int shared = SharedPrefixTokens(config, query_tokens);
  switch (config.method) {
    case SynthesisMethod::kStuff: {
      int prompt = executor_->StuffPromptTokens(query_tokens, config.num_chunks);
      return prefill_s(prompt, shared) + decode_s(prompt, output_estimate);
    }
    case SynthesisMethod::kMapRerank: {
      int prompt = executor_->MapperPromptTokens(query_tokens);
      // Mapper prefills serialize; their decodes run concurrently, so the
      // decode tail is paid once.
      return config.num_chunks * prefill_s(prompt, shared) +
             decode_s(prompt, output_estimate);
    }
    case SynthesisMethod::kMapReduce: {
      int mapper = executor_->MapperPromptTokens(query_tokens);
      int reduce = executor_->ReducePromptTokens(query_tokens, config.num_chunks,
                                                 config.intermediate_tokens);
      return config.num_chunks * prefill_s(mapper, shared) +
             decode_s(mapper, config.intermediate_tokens) +
             prefill_s(reduce, 0) + decode_s(reduce, output_estimate);
    }
  }
  METIS_CHECK(false && "unreachable");
  return 0;
}

void JointScheduler::ApplyBudget(SchedulerDecision* decision, const PrunedConfigSpace& space,
                                 int query_tokens, int output_estimate,
                                 double remaining_budget_s) const {
  decision->est_service_s =
      EstimatedServiceSeconds(decision->config, query_tokens, output_estimate);
  if (options_.e2e_budget_s <= 0 || remaining_budget_s < 0) {
    return;  // Budget split disabled: selection identical to the prior stack.
  }
  // Synthesis side first: shave intermediate tokens, then chunks, never below
  // the space floor — the profiler's information need stays covered.
  RagConfig cfg = decision->config;
  bool trimmed = false;
  while (decision->est_service_s > remaining_budget_s) {
    if (cfg.method == SynthesisMethod::kMapReduce &&
        cfg.intermediate_tokens - intermediate_stride_ >= space.min_intermediate) {
      cfg.intermediate_tokens -= intermediate_stride_;
    } else if (cfg.num_chunks > space.min_chunks) {
      --cfg.num_chunks;
    } else {
      break;
    }
    trimmed = true;
    decision->est_service_s = EstimatedServiceSeconds(cfg, query_tokens, output_estimate);
  }
  if (trimmed) {
    decision->budget_trimmed = true;
    decision->config = cfg;
    decision->peak_bytes = PeakBytes(cfg, query_tokens, output_estimate);
  }
  if (decision->est_service_s > remaining_budget_s) {
    // Synthesis is at its floor and still over budget: spend the retrieval
    // half of the split — clamp the probe budget to the policy minimum so the
    // retrieval front half gives back what time it can.
    decision->retrieval = RetrievalDepthPolicy::ClampToBudget(
        decision->retrieval, depth_policy_.options().min_budget);
    decision->depth_traded = true;
  }
}

SchedulerDecision JointScheduler::Choose(const PrunedConfigSpace& space,
                                         const QueryProfile& profile, int query_tokens,
                                         int output_estimate,
                                         double remaining_budget_s) const {
  SchedulerDecision decision;
  decision.retrieval = RetrievalQualityFor(profile);
  decision.free_bytes = engine_->projected_free_kv_bytes();
  double hit_frac = PredictedPrefixHitFrac();

  bool found = false;
  double best_peak = -1;
  double best_total = -1;
  RagConfig best;

  auto consider = [&](const RagConfig& cfg) {
    double peak = PeakBytes(cfg, query_tokens, output_estimate);
    // Cross-query reuse: the shared prefix predicted to be resident costs no
    // new blocks, so the fit check charges only the expected-novel fraction.
    double fit_peak = peak;
    if (hit_frac > 0) {
      fit_peak -= hit_frac * engine_->kv().BytesForTokens(
                                 SharedPrefixTokens(cfg, query_tokens));
    }
    if (fit_peak > decision.free_bytes) {
      return;  // Would queue behind memory; never picked (§4.3).
    }
    double total = TotalBytes(cfg, query_tokens, output_estimate);
    if (peak > best_peak || (peak == best_peak && total > best_total)) {
      best_peak = peak;
      best_total = total;
      best = cfg;
      found = true;
    }
  };

  auto consider_method = [&](SynthesisMethod m) {
    int max_k = space.max_chunks;
    if (m == SynthesisMethod::kStuff) {
      max_k = MaxLitmSafeStuffChunks(space, query_tokens);
    }
    for (int k = space.min_chunks; k <= max_k; ++k) {
      if (m == SynthesisMethod::kMapReduce) {
        for (int L = space.min_intermediate; L <= space.max_intermediate;
             L += intermediate_stride_) {
          consider(RagConfig{m, k, L});
        }
      } else {
        consider(RagConfig{m, k, space.min_intermediate});
      }
    }
  };

  // Within the pruned space, quality ordering is known (Fig. 4a): complex
  // queries do best with map_reduce's denoising, so when any map_reduce
  // configuration fits it is preferred; the memory best-fit then picks the
  // richest variant. Other methods are only considered when map_reduce does
  // not fit at all (or is not in the space).
  bool has_map_reduce = std::find(space.methods.begin(), space.methods.end(),
                                  SynthesisMethod::kMapReduce) != space.methods.end();
  if (profile.high_complexity && has_map_reduce) {
    consider_method(SynthesisMethod::kMapReduce);
  }
  if (!found) {
    for (SynthesisMethod m : space.methods) {
      if (profile.high_complexity && has_map_reduce && m == SynthesisMethod::kMapReduce) {
        continue;  // Already considered.
      }
      consider_method(m);
    }
  }

  if (found) {
    decision.config = best;
    decision.peak_bytes = best_peak;
    ApplyBudget(&decision, space, query_tokens, output_estimate, remaining_budget_s);
    return decision;
  }

  // Nothing in the pruned space fits the GPU right now: fall back to a
  // cheaper configuration just outside the range instead of queueing (§4.3).
  decision.used_fallback = true;
  if (!profile.requires_joint) {
    // map_rerank units always fit piecewise; cover the information need with
    // the usual 1.5x retrieval headroom.
    int k = std::min(space.max_chunks, (3 * space.min_chunks + 1) / 2);
    decision.config = RagConfig{SynthesisMethod::kMapRerank, k, space.min_intermediate};
  } else {
    // stuff with as many chunks as fit in the currently free memory — but if
    // that cannot even cover the query's information need, the cheaper
    // configuration that *does* meet the requirement is map_reduce with short
    // intermediates: its mappers slot into the current batch piecewise. This
    // is exactly the Fig. 8 scenario ("we select MapReduce as it readily fits
    // in the current batch").
    int k_fit = 0;
    for (int k = space.max_chunks; k >= 1; --k) {
      RagConfig cfg{SynthesisMethod::kStuff, k, space.min_intermediate};
      if (PeakBytes(cfg, query_tokens, output_estimate) <= decision.free_bytes) {
        k_fit = k;
        break;
      }
    }
    if (k_fit >= space.min_chunks) {
      decision.config =
          RagConfig{SynthesisMethod::kStuff, std::max(k_fit, 1), space.min_intermediate};
    } else {
      int mid_intermediate = (space.min_intermediate + space.max_intermediate) / 2;
      decision.config =
          RagConfig{SynthesisMethod::kMapReduce, space.min_chunks, mid_intermediate};
    }
  }
  decision.peak_bytes = PeakBytes(decision.config, query_tokens, output_estimate);
  ApplyBudget(&decision, space, query_tokens, output_estimate, remaining_budget_s);
  return decision;
}

RagConfig JointScheduler::MedianOfSpace(const PrunedConfigSpace& space) const {
  METIS_CHECK(!space.methods.empty());
  RagConfig cfg;
  // Prefer the middle method by the cheap->expensive order the space uses.
  cfg.method = space.methods[space.methods.size() / 2];
  cfg.num_chunks = (space.min_chunks + space.max_chunks) / 2;
  if (cfg.method == SynthesisMethod::kStuff) {
    cfg.num_chunks = std::min(cfg.num_chunks, MaxLitmSafeStuffChunks(space, 32));
  }
  cfg.intermediate_tokens = (space.min_intermediate + space.max_intermediate) / 2;
  return cfg;
}

int JointScheduler::MaxLitmSafeStuffChunks(const PrunedConfigSpace& space,
                                           int query_tokens) const {
  int max_k = space.min_chunks;  // Never shrink below the information need.
  for (int k = space.min_chunks; k <= space.max_chunks; ++k) {
    if (executor_->StuffPromptTokens(query_tokens, k) > kStuffContextBudgetTokens) {
      break;
    }
    max_k = k;
  }
  return max_k;
}

RagConfig JointScheduler::QualityMaxOfSpace(const PrunedConfigSpace& space,
                                            int query_tokens) const {
  METIS_CHECK(!space.methods.empty());
  RagConfig cfg;
  cfg.method = space.methods.back();  // Most expensive method listed.
  // Retrieval coverage saturates around 1.5-2x the information need; beyond
  // that extra chunks only dilute quality (Fig. 4b), so the F1-maximizing
  // width sits at ~1.5x the space minimum, and stuff additionally respects
  // the LITM budget.
  int quality_k = std::min(space.max_chunks, (3 * space.min_chunks + 1) / 2);
  cfg.num_chunks = cfg.method == SynthesisMethod::kStuff
                       ? std::min(quality_k, MaxLitmSafeStuffChunks(space, query_tokens))
                       : quality_k;
  // Summary quality saturates well inside the estimated range (Fig. 4c);
  // beyond that longer intermediates no longer maximize F1.
  cfg.intermediate_tokens =
      space.min_intermediate + (space.max_intermediate - space.min_intermediate) * 3 / 5;
  return cfg;
}

}  // namespace metis
