#include "src/core/systems.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/core/retrieval_depth.h"
#include "src/text/tokenizer.h"

namespace metis {

namespace {

// Profiles below this confidence are distrusted (§5).
constexpr double kConfidenceThreshold = 0.90;
// The low-confidence fallback averages the pruned spaces of this many recent
// confident queries (§5).
constexpr size_t kRecentSpaces = 10;
// Golden-config feedback runs on every this-many accepted queries (§5).
constexpr uint64_t kFeedbackInterval = 30;

QueryRecord MakeRecord(const char* system, const RagQuery& query, const RagConfig& config,
                       SimTime arrival, SimTime finish, RagResult result) {
  QueryRecord rec;
  rec.query_id = query.id;
  rec.system = system;
  rec.config = config;
  rec.arrival_time = arrival;
  rec.finish_time = finish;
  rec.e2e_delay = finish - arrival;
  rec.result = std::move(result);
  return rec;
}

}  // namespace

FixedConfigSystem::FixedConfigSystem(Simulator* sim, SynthesisExecutor* executor,
                                     RagConfig config, std::string label, RecordSink sink)
    : sim_(sim),
      executor_(executor),
      config_(config),
      label_(std::move(label)),
      sink_(std::move(sink)) {
  METIS_CHECK(sim != nullptr);
  METIS_CHECK(executor != nullptr);
  METIS_CHECK(sink_ != nullptr);
}

void FixedConfigSystem::Accept(const RagQuery& query) {
  SimTime arrival = sim_->now();
  executor_->Execute(query, config_, [this, q = &query, arrival](RagResult result) {
    sink_(MakeRecord(label_.c_str(), *q, config_, arrival, sim_->now(), std::move(result)));
  });
}

AdaptiveRagSystem::AdaptiveRagSystem(Simulator* sim, SynthesisExecutor* executor,
                                     QueryProfiler* profiler, JointScheduler* scheduler,
                                     RecordSink sink)
    : sim_(sim),
      executor_(executor),
      profiler_(profiler),
      scheduler_(scheduler),
      sink_(std::move(sink)) {
  METIS_CHECK(sim != nullptr);
  METIS_CHECK(executor != nullptr);
  METIS_CHECK(profiler != nullptr);
  METIS_CHECK(scheduler != nullptr);
  METIS_CHECK(sink_ != nullptr);
}

void AdaptiveRagSystem::Accept(const RagQuery& query) {
  SimTime arrival = sim_->now();
  profiler_->ProfileAsync(query, [this, q = &query, arrival](QueryProfiler::Outcome outcome) {
    PrunedConfigSpace space = RuleBasedMapping(outcome.profile);
    // Maximize the F1 proxy, disregarding the system resource cost (§7.1).
    RagConfig config = scheduler_->QualityMaxOfSpace(space);
    executor_->Execute(*q, config, [this, q, arrival, outcome, config](RagResult result) {
      QueryRecord rec = MakeRecord("adaptive_rag*", *q, config, arrival, sim_->now(),
                                   std::move(result));
      rec.profile = outcome.profile;
      rec.profile_was_bad = outcome.was_bad;
      rec.profiler_delay = outcome.delay_seconds;
      sink_(std::move(rec));
    });
  });
}

MetisSystem::MetisSystem(Simulator* sim, SynthesisExecutor* executor, QueryProfiler* profiler,
                         JointScheduler* scheduler, const Dataset* dataset, Options options,
                         RecordSink sink, OverloadController* overload)
    : sim_(sim),
      executor_(executor),
      profiler_(profiler),
      scheduler_(scheduler),
      dataset_(dataset),
      options_(options),
      sink_(std::move(sink)),
      overload_(overload) {
  METIS_CHECK(sim != nullptr);
  METIS_CHECK(executor != nullptr);
  METIS_CHECK(profiler != nullptr);
  METIS_CHECK(scheduler != nullptr);
  METIS_CHECK(dataset != nullptr);
  METIS_CHECK(sink_ != nullptr);
}

PrunedConfigSpace MetisSystem::ApplyKnobMasks(PrunedConfigSpace space) const {
  if (!options_.tune_method) {
    space.methods = {options_.base_config.method};
  }
  if (!options_.tune_chunks) {
    space.min_chunks = options_.base_config.num_chunks;
    space.max_chunks = options_.base_config.num_chunks;
  }
  if (!options_.tune_intermediate) {
    space.min_intermediate = options_.base_config.intermediate_tokens;
    space.max_intermediate = options_.base_config.intermediate_tokens;
  }
  return space;
}

void MetisSystem::MaybeRunGoldenFeedback(const RagQuery& query) {
  if (!options_.feedback_enabled) {
    return;
  }
  if (accepted_ % kFeedbackInterval != 0) {
    return;
  }
  // Cost control (§5): the golden configuration is heavyweight, so it only
  // runs when the engine has clear headroom — otherwise its decode burst
  // would degrade the configuration decisions of concurrent queries.
  const LlmEngine& engine = scheduler_->engine();
  if (engine.queue_depth() > 0 ||
      engine.projected_free_kv_bytes() < 0.5 * engine.total_kv_bytes()) {
    return;
  }
  // Most accurate configuration (paper §5): map_reduce, 30 chunks, 300-token
  // intermediates. Runs as background load; its output is not recorded as a
  // served query but its structure teaches the profiler.
  RagConfig golden{SynthesisMethod::kMapReduce, 30, 300};
  executor_->Execute(query, golden, [this, q = &query](RagResult result) {
    // The golden answer exposes how many standalone facts the full-effort
    // pipeline actually drew on and the summary detail it needed; that is
    // the signal fed back (§5).
    int pieces = result.gold_facts_retrieved > 0 ? result.gold_facts_retrieved
                                                 : q->num_facts;
    profiler_->AddGoldenFeedback(*q, pieces, q->ideal_summary_tokens);
  });
}

void MetisSystem::Accept(const RagQuery& query) {
  ++accepted_;
  SimTime arrival = sim_->now();

  // Overload admission (ladder rung 3, kReject) happens at arrival, before any
  // profiler work is spent on a query that will be shed. Rejected queries
  // still produce a QueryRecord — no query is ever silently lost — with an
  // empty result and e2e_delay 0 (a rejection is instantaneous).
  if (overload_ != nullptr) {
    OverloadLevel level = overload_->Assess();
    if (!overload_->Admit(query.tenant, level)) {
      QueryRecord rec = MakeRecord("metis", query, RagConfig{}, arrival, arrival, RagResult{});
      rec.tenant = query.tenant;
      rec.rejected = true;
      rec.overload_level = static_cast<int>(level);
      sink_(std::move(rec));
      return;
    }
  }

  MaybeRunGoldenFeedback(query);

  profiler_->ProfileAsync(query, [this, q = &query, arrival](QueryProfiler::Outcome outcome) {
    const RagQuery& query = *q;
    int max_chunks = static_cast<int>(dataset_->db().num_chunks());
    PrunedConfigSpace space = RuleBasedMapping(outcome.profile, max_chunks);

    bool low_confidence = outcome.profile.confidence < kConfidenceThreshold;
    if (low_confidence && !recent_spaces_.empty()) {
      // §5: distrust the profile; reuse the pruned spaces of recent queries.
      std::vector<PrunedConfigSpace> window(recent_spaces_.begin(), recent_spaces_.end());
      space = PrunedConfigSpace::AverageOf(window);
    } else {
      recent_spaces_.push_back(space);
      while (recent_spaces_.size() > kRecentSpaces) {
        recent_spaces_.pop_front();
      }
    }

    space = ApplyKnobMasks(space);

    int query_tokens = static_cast<int>(CountTokens(query.text));
    SchedulerDecision decision;
    if (options_.pick == ConfigPick::kBestFit) {
      // Co-scheduling: the delay budget left after arrival queueing and the
      // profiler round-trip is what Choose() splits between retrieval depth
      // and synthesis tokens. -1 (budget off) keeps the unbudgeted selection.
      double remaining_budget_s = -1;
      double e2e_budget = scheduler_->options().e2e_budget_s;
      if (e2e_budget > 0) {
        remaining_budget_s = std::max(0.0, arrival + e2e_budget - sim_->now());
      }
      // The KV footprint math sizes the output at the dataset's longest answer.
      decision = scheduler_->Choose(space, outcome.profile, query_tokens,
                                    dataset_->profile().max_output_tokens, remaining_budget_s);
    } else {
      decision.config = scheduler_->MedianOfSpace(space);
      decision.retrieval = scheduler_->RetrievalQualityFor(outcome.profile);
    }

    // Degradation rungs 1-2 re-assess at the decision point: pressure may
    // have changed during the profiling delay, and this is where the
    // configuration and retrieval depth are actually committed.
    OverloadLevel decision_level = OverloadLevel::kNone;
    bool depth_shed = false;
    bool synthesis_degraded = false;
    bool hybrid_shed = false;
    if (overload_ != nullptr) {
      decision_level = overload_->Assess();
      if (decision_level >= OverloadLevel::kCheapSynthesis) {
        const RagConfig& cheap = overload_->options().cheap_config;
        RagConfig degraded = cheap;
        // Degradation only ever reduces work relative to the scheduler's
        // own pick.
        degraded.num_chunks = std::min(cheap.num_chunks, decision.config.num_chunks);
        degraded.intermediate_tokens =
            std::min(cheap.intermediate_tokens, decision.config.intermediate_tokens);
        if (!(degraded == decision.config)) {
          decision.config = degraded;
          synthesis_degraded = true;
          overload_->NoteSynthesisDegraded();
        }
      }
      if (decision_level >= OverloadLevel::kShedDepth &&
          overload_->options().shed_probe_budget > 0) {
        RetrievalQuality clamped = RetrievalDepthPolicy::ClampToBudget(
            decision.retrieval, overload_->options().shed_probe_budget);
        if (clamped.mode != decision.retrieval.mode ||
            clamped.nprobe != decision.retrieval.nprobe) {
          decision.retrieval = clamped;
          depth_shed = true;
          overload_->NoteDepthShed();
        }
      }
      if (decision_level >= OverloadLevel::kShedDepth &&
          decision.retrieval.hybrid && decision.retrieval.dense_weight > 0 &&
          decision.retrieval.lexical_weight > 0) {
        // Under pressure a fused retrieval costs two scans; collapse to the
        // cheapest single backend (metadata filters stay — they only shrink
        // the remaining scan).
        decision.retrieval = HybridRouter::ShedToSingleBackend(decision.retrieval);
        hybrid_shed = true;
        overload_->NoteHybridShed();
      }
    }

    executor_->Execute(query, decision.config, decision.retrieval,
                       [this, q, arrival, outcome, decision, low_confidence, decision_level,
                        depth_shed, synthesis_degraded, hybrid_shed](RagResult result) {
      const RagQuery& query = *q;
      QueryRecord rec = MakeRecord("metis", query, decision.config, arrival, sim_->now(),
                                   std::move(result));
      rec.retrieval_quality = decision.retrieval;
      rec.profile = outcome.profile;
      rec.profile_was_bad = outcome.was_bad;
      rec.profiler_delay = outcome.delay_seconds;
      rec.low_confidence_fallback = low_confidence;
      rec.scheduler_fallback = decision.used_fallback;
      rec.tenant = query.tenant;
      rec.overload_level = static_cast<int>(decision_level);
      rec.depth_shed = depth_shed;
      rec.synthesis_degraded = synthesis_degraded;
      rec.hybrid_shed = hybrid_shed;
      rec.est_service_s = decision.est_service_s;
      rec.budget_trimmed = decision.budget_trimmed;
      rec.depth_traded = decision.depth_traded;
      sink_(std::move(rec));
    });
  });
}

}  // namespace metis
