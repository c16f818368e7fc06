// Serving systems: METIS and the paper's baselines on a shared substrate.
//
// Every system drives the same SynthesisExecutor and LlmEngine; they differ
// only in *policy* — which RAG configuration each query runs with, and how
// engine-level batching is configured (done by the experiment runner):
//
//   - FixedConfigSystem (vLLM):   one static RagConfig for every query.
//   - Parrot*:                    FixedConfigSystem on an engine with
//                                 group-aware batching + prefix sharing.
//   - AdaptiveRagSystem:          profiles each query, then picks the
//                                 quality-maximizing configuration with no
//                                 regard to resources (paper §7.1).
//   - MetisSystem:                profile -> Algorithm-1 pruning -> joint
//                                 best-fit selection against live GPU memory,
//                                 with confidence fallback (§5) and optional
//                                 golden-config feedback (§5); knob masks
//                                 support the Fig. 16 incremental ablation.

#ifndef METIS_SRC_CORE_SYSTEMS_H_
#define METIS_SRC_CORE_SYSTEMS_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "src/core/joint_scheduler.h"
#include "src/core/mapping.h"
#include "src/core/overload.h"
#include "src/profiler/profiler.h"
#include "src/synthesis/synthesis.h"

namespace metis {

// Everything the experiment harness wants to know about one served query.
struct QueryRecord {
  int32_t query_id = -1;
  std::string system;
  RagConfig config;
  // Retrieval depth the stack used for this query (per-query when
  // JointSchedulerOptions::per_query_depth; the default value for
  // fixed-config systems, which retrieve at the stack-wide knob).
  RetrievalQuality retrieval_quality;
  QueryProfile profile;  // As estimated (default for fixed-config systems).
  bool profile_was_bad = false;
  bool low_confidence_fallback = false;
  bool scheduler_fallback = false;
  double profiler_delay = 0;
  SimTime arrival_time = 0;
  SimTime finish_time = 0;
  double e2e_delay = 0;  // finish - arrival; includes profiling + queueing.
  RagResult result;

  // --- Multi-tenant overload control (src/core/overload.h) ---
  int tenant = 0;              // Tenant-class index (RunSpec::tenants); 0 default.
  bool rejected = false;       // Shed by admission control; result is empty.
  int overload_level = 0;      // Ladder rung at this query's decision point.
  bool depth_shed = false;     // Rung 1 applied: retrieval budget clamped.
  bool synthesis_degraded = false;  // Rung 2 applied: cheap synthesis config.
  // Always false: no ladder rung changes how a query's dense leg is read.
  // Kept because perfbench reports it (overload.precision_shed).
  bool precision_shed = false;
  bool hybrid_shed = false;    // Fused retrieval collapsed to one backend.

  // --- Joint co-scheduling (JointSchedulerOptions::e2e_budget_s) ---
  double est_service_s = 0;    // Scheduler's service-time prediction.
  bool budget_trimmed = false; // Budget split trimmed synthesis tokens.
  bool depth_traded = false;   // ...and clamped retrieval depth at the floor.
};

using RecordSink = std::function<void(QueryRecord)>;

class ServingSystem {
 public:
  virtual ~ServingSystem() = default;
  // Called at the query's arrival time in simulation context. The query
  // outlives the run: the system's profiler, executor and golden-feedback
  // callbacks refer to `query`, not a copy, so the caller keeps it alive
  // (and unmoved) until the simulation has drained.
  virtual void Accept(const RagQuery& query) = 0;
  virtual const char* name() const = 0;
};

// vLLM / Parrot* baseline policy: a single static configuration.
class FixedConfigSystem : public ServingSystem {
 public:
  FixedConfigSystem(Simulator* sim, SynthesisExecutor* executor, RagConfig config,
                    std::string label, RecordSink sink);

  void Accept(const RagQuery& query) override;
  const char* name() const override { return label_.c_str(); }

 private:
  Simulator* sim_;
  SynthesisExecutor* executor_;
  RagConfig config_;
  std::string label_;
  RecordSink sink_;
};

// AdaptiveRAG*: per-query profile-driven configuration that maximizes
// quality, oblivious to system resources (and to the cost of its own choice).
class AdaptiveRagSystem : public ServingSystem {
 public:
  AdaptiveRagSystem(Simulator* sim, SynthesisExecutor* executor, QueryProfiler* profiler,
                    JointScheduler* scheduler, RecordSink sink);

  void Accept(const RagQuery& query) override;
  const char* name() const override { return "adaptive_rag*"; }

 private:
  Simulator* sim_;
  SynthesisExecutor* executor_;
  QueryProfiler* profiler_;
  JointScheduler* scheduler_;
  RecordSink sink_;
};

// METIS controller (paper §4).
class MetisSystem : public ServingSystem {
 public:
  enum class ConfigPick {
    kMedianOfSpace,  // Straw-man of §4.3: ignore resources, take the median.
    kBestFit,        // Full joint configuration-scheduling.
  };

  struct Options {
    ConfigPick pick = ConfigPick::kBestFit;
    bool feedback_enabled = false;
    // Knob masks for the Fig. 16 incremental study. A masked knob stays at
    // base_config's value.
    bool tune_chunks = true;
    bool tune_method = true;
    bool tune_intermediate = true;
    RagConfig base_config{SynthesisMethod::kStuff, 10, 100};
  };

  // `overload` (optional, not owned): the overload controller driving the
  // degradation ladder on this system's Accept path. Null (the default, and
  // whenever OverloadOptions::enabled is false) keeps Accept bit-for-bit
  // identical to the ladderless behaviour — no signal reads, no extra
  // branches taken.
  MetisSystem(Simulator* sim, SynthesisExecutor* executor, QueryProfiler* profiler,
              JointScheduler* scheduler, const Dataset* dataset, Options options,
              RecordSink sink, OverloadController* overload = nullptr);

  void Accept(const RagQuery& query) override;
  const char* name() const override { return "metis"; }

 private:
  PrunedConfigSpace ApplyKnobMasks(PrunedConfigSpace space) const;
  void MaybeRunGoldenFeedback(const RagQuery& query);

  Simulator* sim_;
  SynthesisExecutor* executor_;
  QueryProfiler* profiler_;
  JointScheduler* scheduler_;
  const Dataset* dataset_;
  Options options_;
  RecordSink sink_;
  OverloadController* overload_ = nullptr;

  std::deque<PrunedConfigSpace> recent_spaces_;
  uint64_t accepted_ = 0;
};

}  // namespace metis

#endif  // METIS_SRC_CORE_SYSTEMS_H_
