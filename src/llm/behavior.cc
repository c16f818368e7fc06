#include "src/llm/behavior.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/text/tokenizer.h"

namespace metis {

BehaviorModel::BehaviorModel(BehaviorParams params, uint64_t seed)
    : params_(params), seed_(seed) {}

double BehaviorModel::LitmMultiplier(double position_frac, int context_tokens) const {
  double ramp = (static_cast<double>(context_tokens) - params_.litm_onset_tokens) /
                params_.litm_range_tokens;
  ramp = std::clamp(ramp, 0.0, 1.0);
  // 4p(1-p): zero at the edges (primacy/recency retained), max mid-context.
  double middleness = 4.0 * position_frac * (1.0 - position_frac);
  return 1.0 - params_.litm_strength * middleness * ramp;
}

namespace {

// Appends tokens to a space-joined string and returns the words they add.
// SplitWords' count of the joined text grows by each token's CountTokens
// (the same whitespace rule), since the joining space cannot merge two words.
int AppendTokens(std::string& out, const std::vector<std::string>& tokens) {
  int words = 0;
  for (const auto& t : tokens) {
    if (!out.empty()) {
      out += ' ';
    }
    out += t;
    words += static_cast<int>(CountTokens(t));
  }
  return words;
}

// Appends one filler word, "fill" and `number`'s decimal digits.
void AppendFiller(std::string& out, int64_t number) {
  if (!out.empty()) {
    out += ' ';
  }
  char digits[24];
  out += "fill";
  out.append(digits, std::to_chars(digits, digits + sizeof(digits), number).ptr);
}

}  // namespace

GenerationResult BehaviorModel::Generate(const ModelSpec& model,
                                         const GenerationTask& task) const {
  Rng rng(seed_ ^ HashString64(model.name) ^ (task.rng_salt * 0x9E3779B97F4A7C15ull));
  GenerationResult result;

  if (task.mode == GenerationMode::kSummarize) {
    // Query-focused summary of one chunk. The budget competes across the
    // chunk's facts plus residual off-query material; a clearly salient fact
    // lets the summarizer lock on and waste little budget on noise, which is
    // why simple queries need only 10-20 intermediate tokens (Fig. 4c).
    int budget = std::max(1, task.summary_budget_tokens);
    double max_salience = 0;
    int fact_count = 0;
    for (const auto& f : task.facts) {
      ++fact_count;
      if (f.relevant) {
        max_salience = std::max(max_salience, f.salience);
      }
    }
    double competing = std::max(1, fact_count) + 2.0 * (1.0 - max_salience);
    double per_fact_budget = static_cast<double>(budget) / competing;
    double survival = std::clamp(per_fact_budget / params_.summary_tokens_per_fact, 0.0, 1.0);

    int kept_tokens = 0;
    for (const auto& f : task.facts) {
      double salience_term = params_.salience_floor + (1.0 - params_.salience_floor) * f.salience;
      // Extracting a salient sentence is far easier than answering with it:
      // given budget, the map stage is near-lossless (which is what makes
      // map_reduce the quality ceiling, cf. the golden config of §5).
      double keep = 0.95 * salience_term * survival;
      if (!f.relevant) {
        keep *= 0.25;  // The summarizer filters most off-query material.
      }
      if (rng.Bernoulli(keep)) {
        FactInContext kept = f;
        kept.from_summary = true;
        kept.salience = std::min(1.0, f.salience + 0.25);  // Denoised by the map stage.
        result.expressed_facts.push_back(std::move(kept));
        kept_tokens += static_cast<int>(f.answer_tokens.size());
      }
    }
    // Summarizers write toward their length budget: the decode cost of the
    // map stage is what makes intermediate_length a real delay knob (Fig. 4c).
    // Each scaffold word's number is drawn, so the confidence draw below
    // reads the same stream position, but no text is written: the reducer
    // reads a summary's length and facts, never its words.
    int target = std::max(1, static_cast<int>(budget * rng.Uniform(0.75, 1.0)));
    int scaffold = std::max(0, target - kept_tokens);
    for (int i = 0; i < scaffold; ++i) {
      rng.UniformInt(0, 9999);
    }
    result.output_tokens = std::max(kept_tokens + scaffold, 1);
    result.confidence = result.expressed_facts.empty() ? rng.Uniform(0.2, 0.5)
                                                       : rng.Uniform(0.75, 0.98);
    return result;
  }

  // --- kAnswer ---
  METIS_CHECK(task.mode == GenerationMode::kAnswer);
  std::string text;
  int words = 0;  // SplitWords(text).size(), counted as text grows.
  double best_salience = 0;
  int recovered_relevant = 0;

  // Complex questions need focused reading: off-query material in the
  // context distracts fact extraction itself, not just the final reasoning
  // step — the core of map_reduce's denoising advantage (Fig. 4a, Q3).
  int irrelevant_in_ctx = 0;
  for (const auto& f : task.facts) {
    irrelevant_in_ctx += f.relevant ? 0 : 1;
  }
  double ctx_noise_frac = task.facts.empty()
                              ? 0.0
                              : static_cast<double>(irrelevant_in_ctx) /
                                    static_cast<double>(task.facts.size());

  for (const auto& f : task.facts) {
    double salience_term = params_.salience_floor + (1.0 - params_.salience_floor) * f.salience;
    double litm = LitmMultiplier(f.position_frac, task.context_tokens);
    if (f.relevant) {
      double p = model.fact_recovery * salience_term * litm;
      if (task.high_complexity && !f.from_summary) {
        p *= 1.0 - 0.30 * ctx_noise_frac;
      }
      if (f.from_summary) {
        // Facts arriving via clean summaries are easier to use.
        p = std::min(1.0, p * 1.03);
      }
      if (rng.Bernoulli(p)) {
        result.expressed_facts.push_back(f);
        words += AppendTokens(text, f.answer_tokens);
        ++recovered_relevant;
        best_salience = std::max(best_salience, f.salience);
      }
    } else {
      // Distractor intrusion grows with context noise; distractors laundered
      // through a summary read as confident statements and intrude far more.
      double ramp = std::clamp((task.context_tokens - params_.litm_onset_tokens) /
                                   params_.litm_range_tokens,
                               0.0, 1.0);
      double p_intrude = f.from_summary
                             ? params_.summary_noise_intrusion
                             : params_.intrusion_base + params_.intrusion_noise_scale * ramp;
      if (rng.Bernoulli(p_intrude)) {
        words += AppendTokens(text, f.answer_tokens);
      }
    }
  }

  // Joint reasoning: the conclusion tokens require both (a) all needed facts
  // recovered and (b) a successful reasoning step, which long noisy contexts
  // degrade. Single-fact queries skip this entirely.
  bool all_facts = recovered_relevant >= task.num_required_facts;
  if (!task.conclusion_tokens.empty()) {
    double ramp = std::clamp(
        (task.context_tokens - params_.litm_onset_tokens) / params_.litm_range_tokens, 0.0, 1.0);
    double p_reason = model.reasoning_factor * (1.0 - params_.reasoning_noise_penalty * ramp);
    if (task.high_complexity) {
      p_reason *= 0.92;  // Why-style questions are harder to close out.
      // Off-query material in the context dilutes complex reasoning even in
      // short prompts; clean map summaries largely avoid this (Fig. 4a Q3).
      int irrelevant = 0;
      for (const auto& f : task.facts) {
        irrelevant += f.relevant ? 0 : 1;
      }
      if (!task.facts.empty()) {
        double noise_frac = static_cast<double>(irrelevant) /
                            static_cast<double>(task.facts.size());
        p_reason *= 1.0 - params_.complex_noise_penalty * noise_frac;
      }
    }
    if (all_facts && rng.Bernoulli(p_reason)) {
      words += AppendTokens(text, task.conclusion_tokens);
      result.reasoning_success = true;
    }
  } else {
    result.reasoning_success = all_facts;
  }

  // Models answer verbosely: scaffolding, question echoes, and hedges that
  // count against precision under token-F1 (why real RAG F1 sits well below
  // 1 even when the facts are right).
  int verbosity = static_cast<int>(
      rng.Uniform(0.25, 0.65) * std::max(words, task.target_output_tokens / 2));
  for (int i = 0; i < verbosity; ++i) {
    AppendFiller(text, rng.UniformInt(0, 9999));
  }
  words += verbosity;

  if (text.empty()) {
    // Models always say *something*, even when they recovered nothing.
    AppendFiller(text, rng.UniformInt(0, 9999));
    ++words;
  }
  result.text = std::move(text);
  // The decoded length tracks the semantic content but never collapses to 0.
  result.output_tokens = std::max({words, task.target_output_tokens / 2, 1});

  // Confidence: strong when a salient relevant fact was expressed; used by
  // map_rerank to pick among per-chunk candidate answers.
  if (recovered_relevant > 0) {
    result.confidence = std::clamp(0.45 + 0.5 * best_salience + rng.Uniform(-0.05, 0.05),
                                   0.05, 0.99);
  } else {
    result.confidence = rng.Uniform(0.15, 0.45);
  }
  return result;
}

}  // namespace metis
