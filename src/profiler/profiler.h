// LLM query profiler (paper §4.1, §5).
//
// METIS asks a large LLM four questions about each incoming query: is it
// complex, does it need joint reasoning, how many pieces of information does
// it need, and how long should per-chunk summaries be. The profiler sees only
// the query text and the database metadata (a one-line corpus description +
// chunk size) — never the ground-truth profile.
//
// The reproduction implements the profiler as a natural-language cue analyzer
// over the workload's query grammar ("why"/"explain" => complex; "compare"/
// "summarize" => joint; enumerations and number words => pieces), with a
// model-grade noise process layered on top:
//   - underspecified queries (no quantity cues) force the profiler to guess,
//   - each profiler model has a base error rate (GPT-4o low, open models
//     higher),
//   - the output carries a log-prob-style confidence score that correlates
//     with profile goodness, enabling the §5 confidence-threshold fallback,
//   - golden-configuration feedback prompts (every 30 queries, last 4 kept)
//     shrink the error rate and teach the profiler the dataset's typical
//     structure, reproducing the Fig. 14 improvement.
//
// Latency and dollar cost go through ApiLlmClient: the profiler reads ~100x
// fewer tokens than the RAG context, which is why its delay stays at ~1/10 of
// the end-to-end response delay (Fig. 18).

#ifndef METIS_SRC_PROFILER_PROFILER_H_
#define METIS_SRC_PROFILER_PROFILER_H_

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/llm/engine.h"
#include "src/sim/simulator.h"
#include "src/vectordb/vectordb.h"
#include "src/workload/dataset.h"

namespace metis {

// Task type the hybrid retrieval router keys its per-backend weights on
// (src/core/hybrid_router.h): factual lookups favor exact-term matching,
// semantic/explanatory questions favor the dense embedding space, temporal
// questions carry a time cue the metadata filter can act on, and comparative
// questions spread their evidence across both spaces.
enum class QueryTaskType : uint8_t {
  kFactual = 0,
  kSemantic = 1,
  kTemporal = 2,
  kComparative = 3,
};
inline constexpr int kNumQueryTaskTypes = 4;

// RNG-free task-type classification over tokenized query text (the keyword
// cues of the workload grammar). Priority: temporal ("when", or a
// "period<digits>" token — which also yields the query's time bucket) >
// comparative ("compare") > semantic ("why"/"explain"/"summarize") > factual.
// `time_bucket_out` (optional) receives the parsed period bucket, or -1.
QueryTaskType ClassifyTaskType(const std::vector<std::string>& tokens,
                               int* time_bucket_out = nullptr);

// The four estimated dimensions (paper Fig. 7) plus the confidence score.
struct QueryProfile {
  bool high_complexity = false;
  bool requires_joint = false;
  int num_info_pieces = 1;     // 1..10.
  int summary_min_tokens = 30; // 30..200 range estimate.
  int summary_max_tokens = 60;
  double confidence = 1.0;     // From output log-probs, 0..1.
  // Hybrid-routing cues, classified RNG-free from the query text (so adding
  // them never perturbs the noise process above).
  QueryTaskType task_type = QueryTaskType::kFactual;
  int time_bucket = -1;  // Parsed "period<b>" cue, or -1 when absent.
};

struct ProfilerParams {
  // Baseline probability that the profile comes out materially wrong.
  double base_error_rate = 0.04;
  // Extra bad-profile probability when the query text lacks quantity cues.
  double underspecified_penalty = 0.45;
  // Each golden-feedback prompt multiplies the error terms by (1 - gain),
  // up to kMaxFeedbackPrompts prompts (paper keeps the last four).
  double feedback_gain = 0.16;
  // Output tokens of the profile completion ("short binary decisions", §4.2).
  int profile_output_tokens = 8;
  // Tokens of each retained feedback prompt added to the profiler input.
  int feedback_prompt_tokens = 90;

  static constexpr int kMaxFeedbackPrompts = 4;
};

// Per-model presets.
ProfilerParams Gpt4oProfilerParams();
ProfilerParams Llama70BProfilerParams();

class QueryProfiler {
 public:
  struct Outcome {
    QueryProfile profile;
    double delay_seconds = 0;  // Profiler API latency for this query.
    bool was_bad = false;      // Ground-truth label used by Fig. 9 analysis.
  };

  QueryProfiler(Simulator* sim, ApiLlmClient* api, const DatabaseMetadata* metadata,
                ProfilerParams params, uint64_t seed);

  // Asynchronous profile with modeled API latency.
  void ProfileAsync(const RagQuery& query, std::function<void(Outcome)> done);

  // Pure estimate without latency (tests and the AdaptiveRAG* baseline's
  // offline analysis).
  Outcome Estimate(const RagQuery& query);

  // Golden-configuration feedback (paper §5): the most accurate answer for a
  // recently served query is shown back to the profiler. `true_pieces` and
  // `true_summary_tokens` leak only what that answer reveals: how many facts
  // it drew on and how much summary material those answers actually used.
  void AddGoldenFeedback(const RagQuery& query, int true_pieces, int true_summary_tokens);

  int feedback_prompts() const { return static_cast<int>(feedback_.size()); }

 private:
  double EffectiveError(double base) const;

  Simulator* sim_;
  ApiLlmClient* api_;
  const DatabaseMetadata* metadata_;
  int description_tokens_ = 0;  // CountTokens(metadata_->description).
  ProfilerParams params_;
  Rng rng_;

  struct Feedback {
    int pieces;
    int summary_tokens;
  };
  std::deque<Feedback> feedback_;   // Last kMaxFeedbackPrompts entries.
  double learned_pieces_mean_ = 0;  // Dataset structure learned from feedback.
  double learned_summary_mean_ = 0;
};

}  // namespace metis

#endif  // METIS_SRC_PROFILER_PROFILER_H_
