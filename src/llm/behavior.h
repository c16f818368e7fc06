// Generation behaviour model: what the simulated LLM says.
//
// The paper measures response quality as token F1 between the generation and
// the ground truth. Here a generation is synthesized from mechanisms, so F1 is
// a *measured* output of the pipeline rather than a hard-coded number:
//
//   - A context is a bag of facts at positions, each with a retrieval-salience
//     score. The model recovers each relevant fact with probability shaped by
//     the model's quality envelope, the fact's salience, and a
//     lost-in-the-middle penalty that grows with context length (Liu et al.,
//     cited by the paper as the reason more chunks eventually hurt).
//   - Joint-reasoning queries additionally need a reasoning step to succeed
//     before the "conclusion" tokens of the gold answer are produced.
//   - Distractor facts occasionally intrude into the answer (precision loss),
//     more often in long noisy contexts.
//   - Summarization (the map stage of map_reduce) keeps each fact with a
//     probability that rises with the intermediate-length budget and falls
//     with how much material competes for that budget, and strips most noise —
//     which is exactly why map_reduce helps complex queries in Fig. 4.
//
// Everything is deterministic given (seed, task salt).

#ifndef METIS_SRC_LLM_BEHAVIOR_H_
#define METIS_SRC_LLM_BEHAVIOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/llm/model_spec.h"

namespace metis {

enum class GenerationMode {
  kAnswer,     // Produce the final answer from facts in context.
  kSummarize,  // Query-focused summary of a single chunk (map stage).
};

// A fact as it appears inside an LLM call's context window.
struct FactInContext {
  int32_t fact_id = -1;
  std::vector<std::string> answer_tokens;  // Gold tokens this fact contributes.
  double position_frac = 0;                // 0 = context start, 1 = end.
  double salience = 0.5;                   // Retrieval/query-match strength.
  bool relevant = true;                    // False: distractor material.
  bool from_summary = false;               // Arrived via a clean map summary.
};

struct GenerationTask {
  GenerationMode mode = GenerationMode::kAnswer;
  std::vector<FactInContext> facts;
  int context_tokens = 0;

  // Query semantics (kAnswer).
  bool require_joint = false;
  bool high_complexity = false;
  int num_required_facts = 1;
  std::vector<std::string> conclusion_tokens;  // Emitted on reasoning success.
  int target_output_tokens = 16;

  // kSummarize only.
  int summary_budget_tokens = 0;

  // Per-call determinism: same salt => same outcome.
  uint64_t rng_salt = 0;
};

struct GenerationResult {
  // The answer's words. Empty for kSummarize: no caller reads a summary's
  // text, only its output_tokens and expressed_facts.
  std::string text;
  int output_tokens = 0;
  // Self-reported answer confidence; map_rerank ranks candidates with this.
  double confidence = 0;
  bool reasoning_success = false;
  // Facts expressed in the output (relevant ones only), with their tokens —
  // lets map_reduce thread recovered facts from summaries into the reducer.
  std::vector<FactInContext> expressed_facts;
};

// Tunable mechanism constants (defaults reproduce the paper's shapes).
struct BehaviorParams {
  // Lost-in-the-middle: penalty ramps up between onset and onset+range tokens
  // of context, scaled by how "mid-context" the fact sits.
  double litm_onset_tokens = 4000;
  double litm_range_tokens = 12000;
  double litm_strength = 0.72;
  // Distractor intrusion probability (base, and extra at full LITM ramp).
  double intrusion_base = 0.09;
  double intrusion_noise_scale = 0.16;
  // Distractor material that survived a map summary reads as a confident,
  // salient statement: it intrudes into answers with high probability. This
  // is the price wide static map_reduce configurations pay on narrow queries.
  double summary_noise_intrusion = 0.5;
  // Summarization: tokens of budget each fact needs to reliably survive.
  double summary_tokens_per_fact = 14;
  // Salience mixing: recovery ~ base * (floor + (1-floor)*salience).
  double salience_floor = 0.58;
  // Reasoning penalty at full LITM ramp.
  double reasoning_noise_penalty = 0.28;
  // High-complexity reasoning also suffers from off-query material in the
  // context regardless of length (map_reduce's denoising advantage, Fig. 4a).
  double complex_noise_penalty = 0.35;
};

class BehaviorModel {
 public:
  BehaviorModel(BehaviorParams params, uint64_t seed);

  // Deterministic for a given (model.name, task.rng_salt).
  GenerationResult Generate(const ModelSpec& model, const GenerationTask& task) const;

  // Exposed for tests/benches: the lost-in-the-middle recovery multiplier for
  // a fact at `position_frac` inside a context of `context_tokens` tokens.
  double LitmMultiplier(double position_frac, int context_tokens) const;

  const BehaviorParams& params() const { return params_; }

 private:
  BehaviorParams params_;
  uint64_t seed_;
};

}  // namespace metis

#endif  // METIS_SRC_LLM_BEHAVIOR_H_
