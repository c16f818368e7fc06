#include "src/profiler/profiler.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/text/tokenizer.h"

namespace metis {

QueryTaskType ClassifyTaskType(const std::vector<std::string>& tokens, int* time_bucket_out) {
  bool temporal = false, comparative = false, semantic = false;
  int bucket = -1;
  for (const std::string& t : tokens) {
    if (t == "when") {
      temporal = true;
    } else if (t.size() > 6 && t.compare(0, 6, "period") == 0) {
      // "period3" survives tokenization as one alphanumeric token; a
      // digits-only suffix is the query's time bucket.
      bool digits = true;
      int value = 0;
      for (size_t i = 6; i < t.size(); ++i) {
        if (t[i] < '0' || t[i] > '9') {
          digits = false;
          break;
        }
        value = value * 10 + (t[i] - '0');
      }
      if (digits) {
        temporal = true;
        bucket = value;
      }
    } else if (t == "compare") {
      comparative = true;
    } else if (t == "why" || t == "explain" || t == "summarize") {
      semantic = true;
    }
  }
  if (time_bucket_out != nullptr) {
    *time_bucket_out = bucket;
  }
  if (temporal) return QueryTaskType::kTemporal;
  if (comparative) return QueryTaskType::kComparative;
  if (semantic) return QueryTaskType::kSemantic;
  return QueryTaskType::kFactual;
}

ProfilerParams Gpt4oProfilerParams() {
  ProfilerParams p;
  p.base_error_rate = 0.035;
  p.underspecified_penalty = 0.34;
  p.feedback_gain = 0.30;
  return p;
}

ProfilerParams Llama70BProfilerParams() {
  ProfilerParams p;
  p.base_error_rate = 0.085;
  p.underspecified_penalty = 0.44;
  p.feedback_gain = 0.25;
  return p;
}

QueryProfiler::QueryProfiler(Simulator* sim, ApiLlmClient* api, const DatabaseMetadata* metadata,
                             ProfilerParams params, uint64_t seed)
    : sim_(sim), api_(api), metadata_(metadata), params_(params), rng_(seed ^ 0x50524F46ull) {
  METIS_CHECK(sim != nullptr);
  METIS_CHECK(api != nullptr);
  METIS_CHECK(metadata != nullptr);
  description_tokens_ = static_cast<int>(CountTokens(metadata->description));
}

double QueryProfiler::EffectiveError(double base) const {
  double factor = 1.0;
  for (size_t i = 0; i < feedback_.size(); ++i) {
    factor *= (1.0 - params_.feedback_gain);
  }
  return base * factor;
}

namespace {

constexpr const char* kNumberWords[] = {"zero", "one", "two",   "three", "four", "five",
                                        "six",  "seven", "eight", "nine",  "ten"};

// The value of `token` as a number word, or -1.
int NumberWordValue(const std::string& token) {
  for (size_t n = 0; n < std::size(kNumberWords); ++n) {
    if (token == kNumberWords[n]) {
      return static_cast<int>(n);
    }
  }
  return -1;
}

}  // namespace

QueryProfiler::Outcome QueryProfiler::Estimate(const RagQuery& query) {
  std::vector<std::string> tokens = Tokenize(query.text);

  // --- Cue analysis (what a capable LLM reads off the question text), in
  // one scan of the tokens ---
  bool cue_high = false;
  bool cue_joint = false;
  bool cue_underspecified = false;  // "...the recent records of X".
  int number_cue = -1;              // The first number word's value.
  for (const std::string& t : tokens) {
    cue_high = cue_high || t == "why" || t == "explain" || t == "reasons" || t == "reason";
    cue_joint = cue_joint || t == "compare" || t == "summarize" || t == "identify" ||
                t == "jointly";
    cue_underspecified = cue_underspecified || t == "recent";
    if (number_cue < 0) {
      number_cue = NumberWordValue(t);
    }
  }
  // Hybrid-routing cues — RNG-free, so the noise process below is untouched.
  int cue_time_bucket = -1;
  QueryTaskType cue_task = ClassifyTaskType(tokens, &cue_time_bucket);

  int pieces;
  if (number_cue > 0) {
    pieces = number_cue;
  } else if (cue_joint || cue_high) {
    // Estimate from the enumeration: entities are comma/"and"-separated in the
    // raw text; commas survive tokenization as punctuation boundaries, so
    // count separators in the raw string.
    int separators = 0;
    for (char c : query.text) {
      if (c == ',') {
        ++separators;
      }
    }
    pieces = separators > 0 ? separators + 2 : (cue_joint ? 2 : 1);
  } else {
    pieces = 1;
  }

  // --- Noise process ---
  double p_bad = EffectiveError(params_.base_error_rate);
  if (cue_underspecified) {
    double penalty = params_.underspecified_penalty;
    if (!feedback_.empty()) {
      // Feedback teaches the dataset's typical structure, softening guesses.
      penalty *= (1.0 - 0.20 * static_cast<double>(feedback_.size()));
    }
    p_bad = std::min(1.0, p_bad + penalty);
  }
  bool bad = rng_.Bernoulli(p_bad);

  QueryProfile profile;
  profile.high_complexity = cue_high;
  profile.requires_joint = cue_joint;
  profile.task_type = cue_task;
  profile.time_bucket = cue_time_bucket;

  if (cue_underspecified) {
    // No quantity cue: the profiler must guess the piece count. Feedback
    // prompts anchor the guess to the dataset's typical structure.
    if (learned_pieces_mean_ > 0) {
      pieces = std::max(1, static_cast<int>(learned_pieces_mean_ + rng_.Normal(0, 0.8) + 0.5));
    } else {
      pieces = 1 + rng_.Poisson(1.0);
    }
  }

  if (bad) {
    // Materially wrong profile: flip a dimension and skew the counts.
    double which = rng_.NextDouble();
    if (which < 0.35) {
      profile.requires_joint = !profile.requires_joint;
    } else if (which < 0.65) {
      profile.high_complexity = !profile.high_complexity;
    }
    pieces += static_cast<int>(rng_.UniformInt(2, 4)) *
              (rng_.Bernoulli(0.5) ? 1 : -1);
  }
  profile.num_info_pieces = std::clamp(pieces, 1, 10);

  // --- Summary-length range (uses metadata: bigger chunks need bigger
  // budgets to survive compression) ---
  double chunk_factor =
      std::clamp(static_cast<double>(metadata_->chunk_size_tokens) / 512.0, 0.5, 1.5);
  int base = profile.high_complexity ? 50 : 30;
  int span = profile.high_complexity ? 20 + 8 * profile.num_info_pieces : 25;
  profile.summary_min_tokens =
      std::clamp(static_cast<int>(base * chunk_factor), 30, 150);
  profile.summary_max_tokens =
      std::clamp(profile.summary_min_tokens + static_cast<int>(span * chunk_factor), 40, 200);

  // --- Confidence (log-prob proxy): correlates with profile goodness ---
  if (bad) {
    profile.confidence = rng_.Bernoulli(0.13) ? rng_.Uniform(0.90, 0.96)
                                              : rng_.Uniform(0.55, 0.90);
  } else {
    profile.confidence = rng_.Bernoulli(0.012) ? rng_.Uniform(0.80, 0.90)
                                               : rng_.Uniform(0.905, 0.995);
  }

  Outcome out;
  out.profile = profile;
  out.was_bad = bad;
  return out;
}

void QueryProfiler::ProfileAsync(const RagQuery& query, std::function<void(Outcome)> done) {
  METIS_CHECK(done != nullptr);
  Outcome out = Estimate(query);

  int input_tokens = static_cast<int>(CountTokens(query.text)) + description_tokens_ +
                     40 /*prompt*/ +
                     static_cast<int>(feedback_.size()) * params_.feedback_prompt_tokens;
  // Everything except the query itself (instructions, metadata, retained
  // feedback prompts) is a stable prefix the provider caches: billed at ~25%.
  api_->Call(input_tokens, params_.profile_output_tokens,
             [out, done = std::move(done)](double latency) mutable {
               out.delay_seconds = latency;
               done(std::move(out));
             },
             /*billed_input_frac=*/0.25);
}

void QueryProfiler::AddGoldenFeedback(const RagQuery& query, int true_pieces,
                                      int true_summary_tokens) {
  (void)query;
  feedback_.push_back(Feedback{true_pieces, true_summary_tokens});
  while (feedback_.size() > static_cast<size_t>(ProfilerParams::kMaxFeedbackPrompts)) {
    feedback_.pop_front();
  }
  double pieces_sum = 0;
  double summary_sum = 0;
  for (const auto& f : feedback_) {
    pieces_sum += f.pieces;
    summary_sum += f.summary_tokens;
  }
  learned_pieces_mean_ = pieces_sum / static_cast<double>(feedback_.size());
  learned_summary_mean_ = summary_sum / static_cast<double>(feedback_.size());
}

}  // namespace metis
