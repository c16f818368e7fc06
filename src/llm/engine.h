// Continuous-batching LLM serving engine (vLLM-equivalent substrate).
//
// Discrete-event model of an iteration-level scheduler:
//   - Requests wait in an arrival queue; admission is FCFS (head-of-line, as
//     in vLLM) or group-aware (Parrot*-style: siblings of an admitted request
//     may jump the line to exploit a resident shared prefix).
//   - Admission reserves the request's full KV footprint (prompt + output,
//     with the 2% OOM buffer of paper §4.3) in the paged KV-cache manager, so
//     decode never preempts.
//   - Each engine step packs up to max_batched_tokens: one decode token per
//     running sequence plus chunked-prefill segments for the rest of the
//     budget. Step latency = weight-read overhead + linear compute +
//     quadratic attention terms, which is what makes one 20-chunk `stuff`
//     prompt slower and hungrier than twenty 1-chunk mappers.
//
// The engine knows nothing about RAG or text: it times and accounts for
// (prompt_tokens, output_tokens) pairs. Synthesis layers precompute the
// generation outcome via BehaviorModel and carry it through the callback.

#ifndef METIS_SRC_LLM_ENGINE_H_
#define METIS_SRC_LLM_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/llm/kv_cache.h"
#include "src/llm/model_spec.h"
#include "src/sim/simulator.h"

namespace metis {

enum class AdmissionPolicy {
  kFcfs,        // vLLM default: strict arrival order, head-of-line blocking.
  kGroupAware,  // Parrot*/METIS: prefer same-prefix-group siblings when the
                // head does not fit, to harvest resident shared prefixes.
};

struct EngineConfig {
  ModelSpec model;
  double kv_pool_bytes = 0;       // KV budget (GPU memory after weights).
  int block_tokens = 16;          // PagedAttention block size.
  int max_batched_tokens = 2048;  // Chunked-prefill token budget per step.
  int max_running = 128;          // Max concurrent sequences.
  bool prefix_sharing = false;    // Share instruction prefixes across a group.
  double admit_buffer_frac = 0.02;  // OOM safety margin (paper §4.3).
  AdmissionPolicy policy = AdmissionPolicy::kFcfs;
  // Cross-query KV reuse: hold a prefix group's blocks resident (reclaimable,
  // LRU-evicted under pressure) for this long after the last reference drops,
  // instead of freeing eagerly — queries that retrieved the same chunks within
  // the window revive the prefix and skip the shared prefill. 0 (default) =
  // eager release, bit-identical to the pre-retention engine.
  double prefix_retention_s = 0;
};

struct RequestTiming {
  uint64_t id = 0;
  SimTime submit_time = 0;
  SimTime admit_time = 0;
  SimTime first_token_time = 0;
  SimTime finish_time = 0;
  int prompt_tokens = 0;
  int output_tokens = 0;
  int prefill_tokens_charged = 0;  // After any shared-prefix discount.

  double total_delay() const { return finish_time - submit_time; }
};

struct InferenceRequest {
  int prompt_tokens = 0;
  int output_tokens = 1;      // Known at submit time (behaviour precomputed).
  uint64_t prefix_group = 0;  // 0 = no shared prefix.
  int shared_prefix_tokens = 0;
  std::function<void(const RequestTiming&)> on_complete;
};

struct EngineStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t steps = 0;
  double busy_seconds = 0;          // Sum of step durations with work in them.
  int64_t prefill_tokens = 0;       // Charged prefill tokens processed.
  int64_t prefill_tokens_saved = 0; // Tokens skipped via shared prefixes.
  // Prefix-reuse accounting: admissions whose shared prefix was already
  // resident; the subset revived off the retained (refs==0) LRU list; and
  // retained prefixes evicted under allocation pressure / expired past the
  // grace window (mirrors the KvCacheManager counters).
  uint64_t prefix_hits = 0;
  uint64_t retained_prefix_hits = 0;
  uint64_t retained_evictions = 0;
  uint64_t retained_expirations = 0;
  int64_t decode_tokens = 0;
  double peak_kv_bytes = 0;
  // Backlog observables (overload control): high-water marks of the arrival
  // queue and the oldest wait it ever imposed. Monotone over a run.
  uint64_t peak_queue_depth = 0;
  double peak_queue_age_s = 0;
};

class LlmEngine {
 public:
  LlmEngine(Simulator* sim, EngineConfig config, uint64_t seed);
  LlmEngine(const LlmEngine&) = delete;
  LlmEngine& operator=(const LlmEngine&) = delete;

  // Enqueues a request; fires on_complete from the simulation when done.
  // Returns the engine-assigned request id.
  uint64_t Submit(InferenceRequest request);

  // --- Resource introspection (used by METIS's joint scheduler) ---
  // KV bytes a (prompt, output) request will need, including block rounding
  // and the admission buffer.
  double BytesNeededFor(int prompt_tokens, int output_tokens) const;
  // Obtainable KV headroom: free blocks plus retained (refs==0) prefixes,
  // which the allocator reclaims on demand. With retention off this is
  // exactly the raw free pool.
  double free_kv_bytes() const { return kv_.free_bytes() + kv_.retained_bytes(); }
  // Free KV minus what the waiting queue will claim once admitted — the
  // "current batch" headroom the paper's controller derives from vLLM's
  // num-seqs / num-batched-tokens counters (§6). Negative under backlog.
  // Queue claims mirror AdmitIfFits's accounting: a request with a shared
  // prefix owns only its tail, the prefix is charged once per group, and not
  // at all when already resident.
  double projected_free_kv_bytes() const;
  double total_kv_bytes() const { return kv_.total_bytes(); }
  size_t queue_depth() const { return waiting_.size(); }
  size_t running_count() const { return running_.size(); }
  // Age (s) of the oldest request still waiting for admission; 0 when the
  // queue is empty. The queue-age signal the overload controller watches:
  // queue_depth says how MANY requests wait, this says how LONG the
  // head-of-line has waited — the leading indicator of deadline misses.
  double oldest_waiting_age() const;

  const EngineStats& stats() const { return stats_; }
  const EngineConfig& config() const { return config_; }
  const ModelSpec& model() const { return config_.model; }
  // Read-only view of the paged KV manager (tests, tracing).
  const KvCacheManager& kv() const { return kv_; }

  // Dollar cost of the GPU time this engine has been busy for.
  double busy_cost_usd() const;

 private:
  struct Rq {
    uint64_t id = 0;
    InferenceRequest req;
    RequestTiming timing;
    int charged_prefill = 0;   // Prefill tokens this request must compute.
    int prefilled = 0;         // Progress through charged_prefill.
    int generated = 0;
    bool holds_prefix = false; // Owns a reference on req.prefix_group.
  };

  void Kick();
  void PlanStep();
  bool PrefillBacklogFull() const;
  bool AdmitIfFits(Rq* rq);
  void Complete(std::unique_ptr<Rq> rq);

  Simulator* sim_;
  EngineConfig config_;
  KvCacheManager kv_;
  uint64_t next_id_ = 1;
  bool step_in_flight_ = false;

  std::deque<std::unique_ptr<Rq>> waiting_;
  std::vector<std::unique_ptr<Rq>> running_;
  EngineStats stats_;
};

// API-hosted model client (profiler LLMs, GPT-4o serving comparisons):
// latency = RTT + input/prefill_rate + output/decode_rate with mild jitter;
// cost is per-token. Does not consume local GPU memory.
class ApiLlmClient {
 public:
  ApiLlmClient(Simulator* sim, ModelSpec model, uint64_t seed);

  // Fires `done(latency_seconds)` after the modeled API delay.
  // `billed_input_frac` < 1 models provider-side prompt caching: repeated
  // instruction/metadata prefixes are billed at a deep discount.
  void Call(int input_tokens, int output_tokens, std::function<void(double)> done,
            double billed_input_frac = 1.0);

  double CostOf(int input_tokens, int output_tokens) const;
  double total_cost_usd() const { return total_cost_usd_; }
  uint64_t calls() const { return calls_; }
  const ModelSpec& model() const { return model_; }

 private:
  Simulator* sim_;
  ModelSpec model_;
  uint64_t seed_;
  uint64_t calls_ = 0;
  double total_cost_usd_ = 0;
};

}  // namespace metis

#endif  // METIS_SRC_LLM_ENGINE_H_
