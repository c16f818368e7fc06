// Multi-tenant overload control (ROADMAP: "multi-tenant overload control and
// SLO-aware scheduling").
//
// The serving stack so far assumes offered load below capacity: every arrival
// is admitted, profiled, and executed at whatever configuration the joint
// scheduler picks. Past saturation that policy collapses — the engine queue
// grows without bound, every class's delay blows through its deadline, and
// goodput (completions *within* deadline) goes to zero even though throughput
// stays positive. RAGGED's stability analysis frames the quality-vs-load
// frontier; this controller walks it deliberately instead of falling off it.
//
// The OverloadController watches the engine's backlog — queue depth, queue
// age, and the projected KV deficit from the LlmEngine the JointScheduler
// reads — folds it into one dimensionless pressure score, and maps the score
// onto a three-rung degradation ladder (each rung also applies every rung
// below it):
//
//   rung 1, kShedDepth:      clamp every query's retrieval-depth budget
//                            (RetrievalDepthPolicy::ClampToBudget) — including
//                            the §5 low-confidence full-budget fallback, which
//                            must not over-retrieve while the engine drowns —
//                            and collapse a fused hybrid retrieval to its
//                            cheapest single backend;
//   rung 2, kCheapSynthesis: drop the scheduler's configuration to a cheap
//                            synthesis config (map_rerank, few chunks — small
//                            per-call KV footprints the engine can admit
//                            piecewise);
//   rung 3, kReject:         stop admitting the lowest-priority classes, with
//                            a deterministic exponential backoff that still
//                            lets a probing trickle through so recovery is
//                            observed without re-opening the floodgates.
//
// Classes with priority >= protect_priority are never rejected: the ladder
// trades best-effort goodput away to keep the interactive class inside its
// deadline. Everything is deterministic (pure function of the signal
// sequence), default-off, and bit-for-bit invisible when disabled.

#ifndef METIS_SRC_CORE_OVERLOAD_H_
#define METIS_SRC_CORE_OVERLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/llm/engine.h"
#include "src/synthesis/config.h"

namespace metis {

// One tenant SLO class. RunSpec/MixedRunSpec carry a vector of these; each
// query arrives under one class (RagQuery::tenant indexes it).
struct TenantClass {
  std::string name = "default";
  // Higher = more important. Classes with priority >= protect_priority are
  // never rejected by the ladder.
  int priority = 0;
  // End-to-end deadline (s) for goodput accounting: a completion counts
  // toward goodput only if e2e_delay <= deadline_s. <= 0 = no deadline
  // (every completion is good).
  double deadline_s = 0;
  // Relative share of offered arrivals routed to this class (normalized over
  // the spec's classes by the runner's tenant stream).
  double rate_share = 1.0;
};

// Ladder rungs, ordered by severity. Comparisons use the underlying value.
enum class OverloadLevel {
  kNone = 0,
  kShedDepth = 1,
  kCheapSynthesis = 2,
  kReject = 3,
};

struct OverloadOptions {
  // Default-off: with `enabled` false the controller is never constructed and
  // every run is bit-for-bit identical to the ladderless stack
  // (overload_test pins this parity).
  bool enabled = false;

  // Pressure score (dimensionless):
  //   pressure = queue_depth / queue_depth_ref
  //            + oldest_waiting_age / queue_age_ref_s
  //            + kv_deficit_weight * max(0, -projected_free_kv / total_kv)
  // projected_free_kv is prefix-aware (LlmEngine::projected_free_kv_bytes):
  // queued siblings of one prefix group charge the shared prefix once — and
  // not at all when it is already resident, including retained (refs==0)
  // prefixes the allocator can reclaim. Under cross-query KV reuse the
  // deficit term therefore reflects the memory the queue will ACTUALLY need,
  // so shared-prefix bursts no longer read as phantom pressure.
  // Each term is ~1.0 when that signal alone indicates saturation. The refs
  // are sized to the engine's per-chunk fanout: one map_reduce query alone
  // parks up to ~30 requests in the waiting queue, so a healthy stack
  // transiently peaks near depth ~20 at age well under 0.2 s, while a
  // saturated one runs at hundreds of waiting requests aging past a second.
  double queue_depth_ref = 32.0;
  double queue_age_ref_s = 1.0;
  double kv_deficit_weight = 2.0;

  // Rung thresholds on the pressure score (ascending).
  double shed_depth_at = 0.75;
  double cheap_synthesis_at = 1.5;
  double reject_at = 2.5;

  // Rung 1: probe-budget cap while at kShedDepth or higher (0 disables the
  // clamp; only bites on the approximate IVF backend, like every depth knob).
  size_t shed_probe_budget = 2;
  // Rung 2: the configuration the scheduler's choice is dropped to while at
  // kCheapSynthesis or higher. num_chunks is a cap — degradation never
  // *increases* work over the scheduler's own choice.
  RagConfig cheap_config{SynthesisMethod::kMapRerank, 3, 0};
  // Rung 3: classes with priority >= protect_priority are never rejected.
  int protect_priority = 1;
  // Deterministic admission backoff while at kReject: an unprotected class
  // admits one query, then rejects `stride - 1`, with the stride doubling
  // from backoff_initial up to backoff_max on each admitted probe. The
  // stride resets when the controller leaves the reject rung.
  uint64_t backoff_initial = 2;
  uint64_t backoff_max = 32;
};

struct OverloadStats {
  uint64_t assessments = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t depth_shed = 0;           // Decisions taken at rung >= kShedDepth.
  uint64_t synthesis_degraded = 0;   // Decisions taken at rung >= kCheapSynthesis.
  uint64_t hybrid_shed = 0;          // Fused retrievals collapsed to one backend.
  int max_level = 0;                 // Highest rung ever assessed.
  double peak_pressure = 0;
};

class OverloadController {
 public:
  // `engine` (not owned) supplies the backlog signals. `classes` may be empty
  // — every query then falls into one implicit default class (priority 0,
  // protected only if protect_priority <= 0).
  OverloadController(const LlmEngine* engine, std::vector<TenantClass> classes,
                     OverloadOptions options);

  // The class a tenant index resolves to (out-of-range indexes clamp to the
  // implicit default class).
  const TenantClass& tenant(int index) const;
  size_t num_classes() const { return classes_.size(); }

  // Folds the engine's current backlog signals into the pressure score.
  double Pressure() const;

  // Pressure -> ladder rung; records stats and (on leaving kReject) resets
  // the admission backoff. Called once per admission decision point.
  OverloadLevel Assess();

  // Admission decision for a query of class `tenant_index` under `level`.
  // Deterministic: protected classes and rungs below kReject always admit;
  // unprotected classes at kReject follow the exponential-backoff trickle.
  bool Admit(int tenant_index, OverloadLevel level);

  // Accounting hooks for the systems applying rungs 1-2 (the controller
  // cannot see whether a decision point actually executed its clamp).
  void NoteDepthShed() { ++stats_.depth_shed; }
  void NoteSynthesisDegraded() { ++stats_.synthesis_degraded; }
  void NoteHybridShed() { ++stats_.hybrid_shed; }

  const OverloadOptions& options() const { return options_; }
  const OverloadStats& stats() const { return stats_; }

 private:
  const LlmEngine* engine_;
  std::vector<TenantClass> classes_;
  TenantClass default_class_;
  OverloadOptions options_;
  OverloadStats stats_;
  bool in_reject_ = false;

  struct Backoff {
    uint64_t stride = 0;     // 0 = fresh (next arrival admits and arms it).
    uint64_t countdown = 0;  // Rejections left before the next admitted probe.
  };
  std::vector<Backoff> backoff_;  // Aligned with classes_ (or size 1).
};

}  // namespace metis

#endif  // METIS_SRC_CORE_OVERLOAD_H_
