// Joint configuration-scheduling (paper §4.3).
//
// Given the pruned configuration space for a query and the engine's *current*
// free KV memory, picks the configuration to execute:
//
//   - A configuration "fits" if its peak concurrent KV footprint (the whole
//     prompt for stuff; one mapper unit for map_rerank/map_reduce, whose calls
//     the engine can admit piecewise — Fig. 8) fits in free memory, net of
//     the waiting queue's claims, after the 2% OOM buffer.
//   - Among fitting configurations, the one with the highest peak footprint
//     wins: inside the pruned (already-high-quality) space, more memory means
//     more chunks / longer intermediates, i.e. slightly higher quality. Stuff
//     never exceeds the lost-in-the-middle-safe prompt budget, and a
//     high-complexity query tries map_reduce first when its space has it.
//   - If nothing in the space fits, fall back to a cheap configuration just
//     outside the range rather than queueing: map_rerank with as many chunks
//     as the space allows when no joint reasoning is needed, else stuff with
//     as many chunks as fit right now — or map_reduce when those cannot
//     cover the information need (Fig. 8).

#ifndef METIS_SRC_CORE_JOINT_SCHEDULER_H_
#define METIS_SRC_CORE_JOINT_SCHEDULER_H_

#include "src/core/hybrid_router.h"
#include "src/core/mapping.h"
#include "src/core/retrieval_depth.h"
#include "src/llm/engine.h"
#include "src/synthesis/synthesis.h"

namespace metis {

struct SchedulerDecision {
  RagConfig config;
  // Retrieval depth chosen for THIS query (profiler-driven when
  // JointSchedulerOptions::per_query_depth, else the per-run knob) — the
  // retrieval-side half of the configuration, threaded to
  // SynthesisExecutor::Execute alongside `config`.
  RetrievalQuality retrieval;
  bool used_fallback = false;
  double peak_bytes = 0;     // Estimated peak KV footprint of the choice.
  // Free KV at decision time, net of the waiting queue's claims
  // (LlmEngine::projected_free_kv_bytes) — the headroom every fit check uses.
  double free_bytes = 0;
  // Co-scheduling trace (e2e_budget_s > 0): predicted service seconds of the
  // choice under the observed prefix-hit rate; whether the budget forced
  // synthesis tokens to be trimmed; and whether, with synthesis already at
  // the space floor, retrieval depth was clamped to its minimum budget too.
  double est_service_s = 0;
  bool budget_trimmed = false;
  bool depth_traded = false;
};

// Scheduler knobs. Defaults are the stock system; the runners, benches and
// perfbench workloads set the non-default values (docs/ARCHITECTURE.md,
// "Options ledger").
struct JointSchedulerOptions {
  // Retrieval-depth quality knob (METIS treats nprobe like its other knobs:
  // spend retrieval work where quality needs it). Only bites when the
  // dataset's VectorDatabase runs the approximate IVF backend — the paper's
  // default flat (exact) backend ignores it, so these defaults are
  // behaviour-neutral for the stock experiments.
  //   adaptive_nprobe: per-query adaptive probing (distance-ratio early
  //     termination, vectordb.h) instead of a fixed probe count.
  //   nprobe_budget: probe count (fixed mode) or per-query budget (adaptive
  //     mode); 0 = the index's configured default.
  bool adaptive_nprobe = true;
  size_t nprobe_budget = 0;
  // Per-QUERY retrieval depth (the METIS §4 treatment of the knob above):
  // when true, profiler-driven systems derive each query's RetrievalQuality
  // from its QueryProfile via RetrievalDepthPolicy (`depth` holds the budget
  // curve) instead of applying adaptive_nprobe/nprobe_budget run-wide. False
  // restores the PR 3 per-run knob bit-for-bit (parity-tested). Like the
  // knobs above, only bites on the approximate IVF backend, and only for
  // systems that profile (fixed-config baselines have no QueryProfile).
  bool per_query_depth = true;
  RetrievalDepthPolicyOptions depth;
  // --- Joint co-scheduling with cross-query KV reuse ---
  // cross_query_prefix: assemble synthesis contexts in canonical chunk order
  // and key prefix groups by retrieved-chunk content (SynthesisExecutor), and
  // run the engine with prefix retention, so concurrent queries that
  // retrieved the same chunks alias resident KV blocks and skip the shared
  // prefill. The scheduler then discounts its fit checks and service
  // estimates by the observed hit rate. Off (default) = the per-query prefix
  // layout and undiscounted planning, bit-identical to the prior stack.
  bool cross_query_prefix = false;
  // Grace window (s) the engine holds refs==0 prefixes reclaimably resident
  // (EngineConfig::prefix_retention_s); wired by the runner only when
  // cross_query_prefix is on.
  double prefix_retention_s = 0.5;
  // Per-query end-to-end delay budget (s). When > 0, Choose() receives the
  // budget remaining after queueing/profiling and splits it between the two
  // halves of the configuration: first trims synthesis (intermediate_tokens,
  // then num_chunks, floored at the space minimum — the information need),
  // and only when synthesis is at its floor clamps retrieval depth to the
  // policy's min_budget. Under KV pressure this trades work for latency
  // instead of shedding the query. 0 (default) = no budget, bit-identical
  // scheduling.
  double e2e_budget_s = 0;
  // --- Hybrid retrieval routing (src/core/hybrid_router.h) ---
  // When hybrid.enabled, RetrievalQualityFor runs the profile's task type
  // through the router AFTER the depth policy, so per-query depth and the
  // backend mix compose. Off (default): bit-identical qualities. Only bites
  // for profiler-driven systems (fixed-config baselines have no profile) and
  // on databases that built a lexical index.
  HybridRouterOptions hybrid;
};

// The RetrievalQuality handed to SynthesisExecutor / RetrievalBatcher for a
// stack built under `options`.
RetrievalQuality RetrievalQualityFromOptions(const JointSchedulerOptions& options);

class JointScheduler {
 public:
  // `intermediate_stride`: step (tokens) of the map_reduce intermediate-length
  // sweep and of the budget trim.
  JointScheduler(const LlmEngine* engine, const SynthesisExecutor* executor,
                 int intermediate_stride = 10, JointSchedulerOptions options = {});

  // Peak concurrent KV bytes (incl. admission buffer) a config needs.
  double PeakBytes(const RagConfig& config, int query_tokens, int output_estimate) const;
  // Total KV bytes across all of a config's calls (tie-break desirability).
  double TotalBytes(const RagConfig& config, int query_tokens, int output_estimate) const;

  // The best-fit selection described above. The decision also carries the
  // query's retrieval depth (see RetrievalQualityFor). `remaining_budget_s`
  // is the e2e delay budget left for this query (arrival + e2e_budget_s −
  // now); < 0 (default) or options().e2e_budget_s == 0 disables the budget
  // split and reproduces the unbudgeted selection exactly.
  SchedulerDecision Choose(const PrunedConfigSpace& space, const QueryProfile& profile,
                           int query_tokens, int output_estimate,
                           double remaining_budget_s = -1) const;

  // Fraction of prefill tokens the engine has skipped via resident shared
  // prefixes so far (saved / (charged + saved)); the scheduler's predictor
  // for how much of the NEXT shared prefix will already be resident. 0 until
  // evidence accumulates, and always 0 with cross_query_prefix off.
  double PredictedPrefixHitFrac() const;

  // Predicted wall-clock seconds to serve `config` on the engine right now:
  // prefill at the model's linear rate — discounted by PredictedPrefixHitFrac
  // on the shared-prefix portion — plus quadratic attention terms and a
  // decode estimate that amortizes step overhead over the running batch.
  // A planning signal (monotone in the knobs), not an accounting identity.
  double EstimatedServiceSeconds(const RagConfig& config, int query_tokens,
                                 int output_estimate) const;

  // Retrieval depth for one query: the RetrievalDepthPolicy mapping of
  // `profile` when options().per_query_depth, else the per-run
  // RetrievalQualityFromOptions knob. Callers that bypass Choose (the
  // median-of-space ablation pick) use this directly.
  RetrievalQuality RetrievalQualityFor(const QueryProfile& profile) const;

  const RetrievalDepthPolicy& depth_policy() const { return depth_policy_; }

  // Resource-oblivious reference policies (ablation / baselines):
  // median of the pruned space (the "straw-man" of §4.3).
  RagConfig MedianOfSpace(const PrunedConfigSpace& space) const;
  // Quality-maximizing corner of the space (the AdaptiveRAG* behaviour:
  // most expensive method, most chunks, longest intermediates).
  RagConfig QualityMaxOfSpace(const PrunedConfigSpace& space, int query_tokens = 32) const;

  // Largest stuff num_chunks (>= min_chunks) whose prompt stays inside the
  // lost-in-the-middle-safe context budget. Both the scheduler and the
  // quality-max policy refuse stuff prompts beyond this: Fig. 4b shows
  // quality *drops* there, so such configs are not "promising" (§4.2).
  int MaxLitmSafeStuffChunks(const PrunedConfigSpace& space, int query_tokens) const;

  // Context budget (tokens) past which stuff prompts are considered
  // quality-degrading. Default tracks the behaviour model's LITM onset.
  static constexpr int kStuffContextBudgetTokens = 5120;

  const LlmEngine& engine() const { return *engine_; }
  const JointSchedulerOptions& options() const { return options_; }

 private:
  // Tokens of `config`'s context that precede the query-specific tail under
  // the canonical cross-query layout (0 with the feature off).
  int SharedPrefixTokens(const RagConfig& config, int query_tokens) const;
  // Trims `decision` to fit `remaining_budget_s` per the e2e_budget_s doc.
  void ApplyBudget(SchedulerDecision* decision, const PrunedConfigSpace& space,
                   int query_tokens, int output_estimate, double remaining_budget_s) const;

  const LlmEngine* engine_;
  const SynthesisExecutor* executor_;
  int intermediate_stride_;
  JointSchedulerOptions options_;
  RetrievalDepthPolicy depth_policy_;
};

}  // namespace metis

#endif  // METIS_SRC_CORE_JOINT_SCHEDULER_H_
