// Experiment runner: builds a full serving stack (dataset -> vector DB ->
// engine -> system) inside one simulation and measures what the paper's
// evaluation measures. Shared by every bench binary and example.

#ifndef METIS_SRC_RUNNER_RUNNER_H_
#define METIS_SRC_RUNNER_RUNNER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/core/depth_calibrator.h"
#include "src/core/systems.h"
#include "src/llm/behavior.h"
#include "src/llm/engine.h"
#include "src/profiler/profiler.h"
#include "src/synthesis/synthesis.h"
#include "src/workload/dataset.h"

namespace metis {

enum class SystemKind {
  kVllmFixed,    // vLLM baseline: static config, FCFS, no prefix sharing.
  kParrotFixed,  // Parrot*: static config + group-aware batching + prefixes.
  kAdaptiveRag,  // AdaptiveRAG*: per-query quality-max config on vLLM.
  kMetis,        // Full METIS (options configurable).
};

const char* SystemKindName(SystemKind kind);

// Streaming ingest under serving load (requires retrieval.mutable_index).
// The runner schedules `num_ops` insert/delete operations at Poisson times
// into the same simulation clock the query stream runs on — deterministic
// per seed. Inserts add synthetic filler chunks to the live database; deletes
// tombstone a uniformly random live non-gold victim.
struct IngestOptions {
  bool enabled = false;
  int num_ops = 0;
  double rate = 4.0;             // Mean ops/sec.
  double insert_fraction = 0.8;  // P(insert) per op; the rest delete.
};

// Ingest-stream + index-lifecycle accounting for one run (zeros unless the
// spec ran a mutable index). Counter fields mirror MutableIndexStats; the
// gauges are end-of-run snapshots.
struct IngestMetrics {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t seals = 0;
  uint64_t compactions = 0;
  uint64_t retrains = 0;
  size_t live_chunks = 0;
  size_t segments = 0;
  size_t memtable_rows = 0;
  size_t tombstones = 0;
};

// Shared-query workload shaping (cross-query KV reuse experiments). With
// hot_fraction > 0, that fraction of the query stream (chosen on its own Rng
// stream, so arrival times and tenant assignment are untouched) is replaced
// by duplicates of `num_hot` template queries drawn from the head of the
// stream — each duplicate keeps its slot's arrival time and tenant but
// carries the template's text/golds, so many concurrent queries retrieve the
// SAME chunks (the regime where canonical-order prefix grouping aliases KV).
// hot_fraction == 0 (default) leaves the stream bit-identical.
struct SharedWorkloadOptions {
  double hot_fraction = 0;
  int num_hot = 4;
};

// What every serving run shares, whether it serves one dataset (RunSpec) or
// several datasets on one engine (MixedRunSpec): the engine, the system and
// its options, the retrieval backend, overload control, ingest and the seed.
struct ServingSpec {
  std::string serving_model = "mistral-7b-v3-awq";
  // KV pool (GiB); < 0 derives a default from the model.
  double kv_pool_gib = -1;
  int max_batched_tokens = 2048;
  std::string embedding_model = "cohere-embed-v3-sim";
  std::string profiler_model = "gpt-4o";

  SystemKind system = SystemKind::kMetis;
  MetisSystem::Options metis;
  JointSchedulerOptions scheduler;  // Scheduler knobs (joint_scheduler.h).
  // Retrieval backend every dataset's vector database builds (paper default:
  // exact flat). The IVF backend makes the scheduler's retrieval-depth knob
  // (scheduler.adaptive_nprobe / nprobe_budget) live end to end; `shards`
  // partitions index storage for shard-parallel batched sweeps.
  RetrievalIndexOptions retrieval;
  // Forces engine batching features regardless of the system default
  // (used by the Fig. 12 ablation to stage batching separately).
  std::optional<bool> override_prefix_sharing;

  // --- Multi-tenant overload control (src/core/overload.h) ---
  // SLO classes queries arrive under. Empty (default): every query runs in
  // one implicit default class and nothing below changes any behaviour.
  // Non-empty: each query is assigned a class deterministically, with
  // probability proportional to rate_share (its own Rng stream, so arrival
  // times are untouched).
  std::vector<TenantClass> tenants;
  // Arrival process shape, applied to every dataset's stream. kPoisson
  // (default) is bit-identical to the historical AssignPoissonArrivals
  // stream; bursty/flash_crowd keep the same mean rate but
  // concentrate arrivals (overload experiments).
  ArrivalProcess arrivals;
  // Degradation ladder; enabled=false (default) never constructs the
  // controller — bit-for-bit parity with the ladderless stack. Only the
  // METIS system consults it. One controller watches the engine, so with
  // several datasets it reacts to their aggregate backlog.
  OverloadOptions overload;

  // Live insert/delete stream concurrent with the query stream, one per
  // dataset database (requires retrieval.mutable_index; ignored when
  // disabled).
  IngestOptions ingest;

  uint64_t seed = 42;
};

struct RunSpec : ServingSpec {
  std::string dataset = "musique";
  int num_queries = 200;
  // Open-loop rate (queries/sec); <= 0 runs closed-loop sequential (one
  // query in flight at a time — the paper's low-load setup, Fig. 19).
  double arrival_rate = 2.0;
  RagConfig fixed_config{SynthesisMethod::kStuff, 10, 100};
  // Shared-query shaping of the stream (see SharedWorkloadOptions above).
  SharedWorkloadOptions shared_workload;
};

// Per-SLO-class outcome accounting for one run (RunMetrics::class_metrics).
// When the spec declares no tenants, every run still reports one implicit
// "default" class so downstream tooling has a uniform shape.
struct TenantClassMetrics {
  std::string name = "default";
  int priority = 0;
  double deadline_s = 0;     // <= 0: every completion counts as good.
  uint64_t offered = 0;      // Arrivals routed to this class.
  uint64_t completed = 0;    // Served to completion (rejected excluded).
  uint64_t rejected = 0;     // Shed by admission control (ladder rung 3).
  uint64_t missed_deadline = 0;  // Completed but past deadline_s.
  uint64_t depth_shed = 0;       // Served with a clamped retrieval budget.
  uint64_t synthesis_degraded = 0;  // Served with the cheap synthesis config.
  Samples delays;            // e2e delay of completed queries only.
  double goodput_qps = 0;    // In-deadline completions / run sim_duration.

  double p50_delay() const { return delays.empty() ? 0 : delays.Quantile(0.5); }
  double p99_delay() const { return delays.empty() ? 0 : delays.p99(); }
};

struct RunMetrics {
  std::string label;
  RunSpec spec;

  Samples delays;           // End-to-end per-query delay (s); completed only.
  Samples f1s;              // Per-query token F1; completed only.
  Samples profiler_delays;  // Per-query profiler latency (s); 0 for fixed.
  Samples profiler_fracs;   // profiler_delay / e2e_delay.

  double mean_delay() const { return delays.mean(); }
  double p50_delay() const { return delays.empty() ? 0 : delays.Quantile(0.5); }
  double p90_delay() const { return delays.empty() ? 0 : delays.p90(); }
  double p99_delay() const { return delays.empty() ? 0 : delays.p99(); }
  double mean_f1() const { return f1s.mean(); }

  double sim_duration = 0;    // First arrival to last completion (s).
  double throughput_qps = 0;  // Completed queries / sim_duration.
  // Overload accounting. Goodput counts completions within their class
  // deadline (no deadline = all completions good); without overload control
  // and without deadlines, goodput_qps == throughput_qps and
  // rejected_queries == 0.
  uint64_t rejected_queries = 0;
  double goodput_qps = 0;
  // One entry per spec.tenants class (a single "default" entry when empty).
  std::vector<TenantClassMetrics> class_metrics;
  // IVF backend only: average inverted lists probed per index search during
  // this run (0 under the flat backend) — the observable that proves the
  // retrieval-depth knob reached the index.
  double mean_probes = 0;
  // IVF backend only: per-query probe-depth distribution — bucket p counts
  // searches that scanned exactly p inverted lists (last bucket clamps; see
  // IvfL2Index::probe_histogram). Empty under the flat backend. With a fixed
  // budget B the whole run lands in bucket B; with per-query depth
  // (JointSchedulerOptions::per_query_depth) the spread shows which budgets
  // the RetrievalDepthPolicy actually assigned.
  std::vector<uint64_t> probe_histogram;
  // Hybrid retrieval accounting (vectordb.h HybridSearchStats): dense /
  // lexical backend scans and fused queries this run issued. All zeros for a
  // dense-only stack (the hybrid path was never taken).
  HybridSearchStats hybrid;
  // Mutable-index runs only: what the ingest stream did and where the index's
  // segment lifecycle ended up (all zeros for static-index runs).
  IngestMetrics ingest;
  double engine_cost_usd = 0;
  double profiler_cost_usd = 0;
  double total_cost_usd() const { return engine_cost_usd + profiler_cost_usd; }

  EngineStats engine_stats;
  std::vector<QueryRecord> records;
};

// Runs one dataset's stack alone. Deterministic for a given spec. The same
// serving run as RunMixedExperiment with one stack, except that its streams
// draw from the raw spec.seed and it alone supports closed loop and
// shared-workload shaping. Labelled with SystemKindName.
RunMetrics RunExperiment(const RunSpec& spec);

// Mixed-workload experiment: the paper's §7.1 setup sends all datasets
// *concurrently* to one serving engine (open loop, `rate_per_dataset` each)
// and reports results per dataset. The shared engine is where cross-dataset
// contention — and METIS's resource-aware adaptation — plays out. Closed
// loop and shared-workload shaping are one-dataset features (RunSpec): a
// closed loop has one query in flight, which cannot interleave datasets.
struct MixedRunSpec : ServingSpec {
  std::vector<std::string> datasets = {"squad", "musique", "kg_rag_finsec", "qmsum"};
  int queries_per_dataset = 200;
  double rate_per_dataset = 2.0;  // Must be > 0.
  // Fixed-config baselines may use a different hand-picked config per dataset
  // (aligned with `datasets`); a single entry applies to all.
  std::vector<RagConfig> fixed_configs = {RagConfig{SynthesisMethod::kStuff, 10, 100}};

  // --- Per-dataset retrieval-depth policies ---
  // The per-piece F1-vs-budget curves differ per dataset profile (RAGGED), so
  // the mixed path can give every dataset stack its OWN
  // RetrievalDepthPolicyOptions budget line instead of the one
  // `scheduler.depth` line above. Ablation flag: false (default) applies
  // `scheduler` unchanged to every stack — the shared-curve behaviour,
  // bit-for-bit (every field below is ignored then; parity-tested).
  bool per_dataset_depth = false;
  // How a stack with no explicit override below derives its line:
  //   kProfile — closed-form from the DatasetProfile (DeriveFromProfile);
  //   kOffline — probe-grid calibration on a held-out query slice
  //              (DepthCalibrator::Calibrate), mirroring METIS's offline
  //              config-space pruning.
  enum class DepthCalibration { kProfile, kOffline };
  DepthCalibration depth_calibration = DepthCalibration::kProfile;
  DepthCalibratorOptions calibrator;  // Grid/holdout/tolerance for both modes.
  // Full per-stack scheduler overrides, aligned with `datasets`; entry d (when
  // present and engaged by per_dataset_depth) replaces `scheduler` for
  // datasets[d]'s whole stack. Missing/nullopt entries fall back to the
  // calibrated line above.
  std::vector<std::optional<JointSchedulerOptions>> per_dataset_scheduler;
};

// The scheduler options RunMixedExperiment builds datasets[d]'s stack with:
// `spec.scheduler` verbatim unless per_dataset_depth engages an override or a
// calibrated depth line (see MixedRunSpec). Exposed so benches/tests can see
// the per-stack budget lines a spec resolves to without running the
// experiment. `dataset` must be the generated dataset the stack would serve
// (its profile and index feed the calibrator).
JointSchedulerOptions EffectiveSchedulerOptions(const MixedRunSpec& spec, size_t d,
                                                const Dataset& dataset);

// Returns one RunMetrics per dataset (order matches spec.datasets), labelled
// "<system>/<dataset>". Engine stats are global; engine cost is attributed by
// processed-token share. Dies on rate_per_dataset <= 0.
std::vector<RunMetrics> RunMixedExperiment(const MixedRunSpec& spec);

// Shared dataset cache: generation is deterministic per (profile, seed,
// embedder, num_queries, index options), so benches sweeping configs reuse
// the corpus. Distinct retrieval backends key distinct cache entries. The
// cache is mutex-guarded (safe to call from pool threads) and bounded: past
// kDatasetCacheMaxEntries the oldest entries are evicted (outstanding
// shared_ptrs keep evicted datasets alive).
//
// Probe-accounting contract: IVF probe counters live on the (shared) index,
// and each run resets them at start-of-traffic, so RunMetrics::mean_probes /
// probe_histogram are exact for SEQUENTIAL runs — today's only usage.
// CONCURRENT runs that resolve to the same cache entry would commingle (and
// mutually reset) one counter set; callers wanting parallel runs with probe
// stats must use distinct specs (or per-run private datasets, as
// RunMixedExperiment does for repeated dataset names).
inline constexpr size_t kDatasetCacheMaxEntries = 32;
std::shared_ptr<const Dataset> GetOrGenerateDataset(const std::string& dataset_name,
                                                    int num_queries,
                                                    const std::string& embedding_model,
                                                    uint64_t seed,
                                                    const RetrievalIndexOptions& index_options = {});

// Drops every cached dataset (long bench binaries sweeping many corpora can
// release the memory between phases). Datasets still referenced elsewhere
// stay alive through their shared_ptrs.
void ClearDatasetCache();

// Runs a single query in isolation (idle engine, no queueing) and returns the
// result — the probe the Fig. 4 / Fig. 5 per-knob sweeps use.
RagResult RunSingleQuery(const Dataset& dataset, const RagQuery& query, const RagConfig& config,
                         const std::string& serving_model, uint64_t seed);

// The static-configuration menu the fixed-config baselines sweep over.
std::vector<RagConfig> FixedConfigMenu(const DatasetProfile& profile);

// Default KV pool (GiB) for a serving model on the paper's A40 server.
double DefaultKvPoolGib(const ModelSpec& model);

}  // namespace metis

#endif  // METIS_SRC_RUNNER_RUNNER_H_
