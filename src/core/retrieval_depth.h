// Profiler-driven per-query retrieval depth (METIS §4 applied to the
// retrieval knob).
//
// PRs 2-3 made retrieval depth (IVF nprobe) a serving-stack quality knob, but
// one set per RUN: every query probed under the same RetrievalQuality. METIS's
// core claim is per-QUERY configuration adaptation, and retrieval depth wants
// it as much as chunk count does: a query needing one fact is served by the
// first list or two, while a query whose evidence is scattered across many
// chunks needs a deep scan — RAGGED (Hsia et al., 2024) measures exactly this
// per-query spread in optimal depth.
//
// RetrievalDepthPolicy closes the loop: it maps the profiler's QueryProfile to
// a per-query RetrievalQuality, which the JointScheduler folds into its
// decision and the SynthesisExecutor threads down to the index through
// VectorDatabase::Retrieve, one query per retrieval event.
//
// The documented budget curve (pinned by depth_policy_test):
//
//     budget(p) = clamp(base_probes + probes_per_piece * p,
//                       min_budget, max_budget)        for confident profiles
//     budget(p) = max_budget                           when confidence < 0.5
//
// where p = QueryProfile::num_info_pieces and probes_per_piece is SIGNED —
// and the default slope is NEGATIVE: fewer pieces get a deeper budget. That
// direction is measured, not assumed (bench_fig_depth's per-piece-group
// F1-vs-budget curves, on both the stock and the topical Musique corpus):
// a single-fact query is all-or-nothing — if its one gold chunk's inverted
// list is not probed, token-F1 collapses to ~0 — so its marginal F1 per
// probe stays high until deep into the list ranking. A many-piece query's
// mixture embedding sits between its topics' centroids, its gold spreads
// over exactly those nearest lists, and partial credit accrues from the
// first few probes — it saturates early. (RAGGED's observation that optimal
// depth varies strongly per query, with the variation direction an
// empirical property of the workload.) The confidence fallback mirrors the
// paper's §5 low-confidence handling: a distrusted profile must not be
// allowed to under-retrieve, so it gets the full budget. `adaptive` selects
// the probe MODE within the budget: fixed (probe exactly budget lists) or
// the PR 2 distance-ratio early-termination rule (probe up to budget lists,
// stopping early for easy queries).

#ifndef METIS_SRC_CORE_RETRIEVAL_DEPTH_H_
#define METIS_SRC_CORE_RETRIEVAL_DEPTH_H_

#include <cstddef>

#include "src/profiler/profiler.h"
#include "src/vectordb/vectordb.h"

namespace metis {

struct RetrievalDepthPolicyOptions {
  // Budget curve: budget(p) = clamp(base + slope * p, min, max). The default
  // line (10 - 2p over [2, 8]) maps pieces {1, 2, 3, >=4} to budgets
  // {8, 6, 4, 2} — deep scans for all-or-nothing lookups, shallow for
  // partial-credit multihop (see the header rationale).
  size_t base_probes = 10;
  int probes_per_piece = -2;  // Signed slope.
  size_t min_budget = 2;
  // Cap (and the depth used for distrusted profiles). Should not exceed the
  // index's nlist — deeper budgets clamp to the list count at plan time.
  size_t max_budget = 8;
  // Probe mode within the budget: true = distance-ratio early termination
  // (AdaptiveProbePolicy), false = probe exactly budget(p) lists.
  bool adaptive = true;
};

class RetrievalDepthPolicy {
 public:
  explicit RetrievalDepthPolicy(RetrievalDepthPolicyOptions options = {});

  // The documented budget curve above.
  size_t BudgetFor(const QueryProfile& profile) const;

  // The per-query RetrievalQuality handed to the executor: BudgetFor() as the
  // probe budget, mode per `options.adaptive`. Exact (flat) backends ignore
  // it, so the policy is behaviour-neutral for the paper's default setup.
  RetrievalQuality QualityFor(const QueryProfile& profile) const;

  // Overload-ladder support: `quality` with its probe budget clamped to at
  // most `budget_cap` (floored at 1 probe; kIndexDefault resolves to a
  // concrete fixed budget first so the cap is enforceable). The depth rung of
  // the degradation ladder applies this to every decision — including the §5
  // low-confidence full-budget fallback, which must not over-retrieve while
  // the engine is drowning. No-op when budget_cap == 0.
  static RetrievalQuality ClampToBudget(RetrievalQuality quality, size_t budget_cap);

  const RetrievalDepthPolicyOptions& options() const { return options_; }

 private:
  RetrievalDepthPolicyOptions options_;
};

}  // namespace metis

#endif  // METIS_SRC_CORE_RETRIEVAL_DEPTH_H_
