// Golden-determinism replay: the full Runner stack — dataset generation,
// embedding cache, batched retrieval, engine simulation, profiler
// noise, scheduler decisions — must be a pure function of the RunSpec.
// Running the same spec twice must reproduce RunMetrics bit for bit: every
// per-query F1 and delay, the probe accounting, and the per-query probe
// histogram. This pins the whole stack's reproducibility contract (the
// property every parity test and bench baseline in this repo leans on) in
// one place, across backends (flat, IVF) and with per-query retrieval depth
// on and off.
//
// The pinned digests at the bottom go one step further: a 64-bit digest of
// every RunMetrics field is fixed per spec, for about twenty small specs that
// between them cover every runner feature (closed loop, shared workload,
// arrival shapes, API serving, tenants + ladder, ingest, hybrid, calibrated
// per-dataset depth, repeated datasets, every SystemKind). A refactor of the
// runner must leave every digest unchanged. A change that is meant to move
// results re-pins the digests it moves and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/strings.h"
#include "src/core/hybrid_router.h"
#include "src/runner/runner.h"

namespace metis {
namespace {

// `compare_retrieval_quality=false` for cross-flag comparisons: the record
// field logs what the depth policy CHOSE (which differs by design when the
// flag flips), while everything the quality feeds into must still match.
void ExpectBitIdentical(const RunMetrics& a, const RunMetrics& b,
                        bool compare_retrieval_quality = true) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    const QueryRecord& ra = a.records[i];
    const QueryRecord& rb = b.records[i];
    EXPECT_EQ(ra.query_id, rb.query_id) << "record " << i;
    EXPECT_EQ(ra.config.method, rb.config.method) << "record " << i;
    EXPECT_EQ(ra.config.num_chunks, rb.config.num_chunks) << "record " << i;
    EXPECT_EQ(ra.config.intermediate_tokens, rb.config.intermediate_tokens) << "record " << i;
    if (compare_retrieval_quality) {
      EXPECT_EQ(ra.retrieval_quality.mode, rb.retrieval_quality.mode) << "record " << i;
      EXPECT_EQ(ra.retrieval_quality.nprobe, rb.retrieval_quality.nprobe) << "record " << i;
    }
    // Exact double equality — bit-identical, not approximately equal.
    EXPECT_EQ(ra.result.f1, rb.result.f1) << "record " << i;
    EXPECT_EQ(ra.e2e_delay, rb.e2e_delay) << "record " << i;
    EXPECT_EQ(ra.finish_time, rb.finish_time) << "record " << i;
    EXPECT_EQ(ra.profiler_delay, rb.profiler_delay) << "record " << i;
    EXPECT_EQ(ra.result.retrieved_chunks, rb.result.retrieved_chunks) << "record " << i;
    EXPECT_EQ(ra.result.gold_facts_retrieved, rb.result.gold_facts_retrieved) << "record " << i;
  }
  EXPECT_EQ(a.delays.values(), b.delays.values());
  EXPECT_EQ(a.f1s.values(), b.f1s.values());
  EXPECT_EQ(a.profiler_delays.values(), b.profiler_delays.values());
  EXPECT_EQ(a.sim_duration, b.sim_duration);
  EXPECT_EQ(a.throughput_qps, b.throughput_qps);
  EXPECT_EQ(a.mean_probes, b.mean_probes);
  EXPECT_EQ(a.probe_histogram, b.probe_histogram);
  EXPECT_EQ(a.engine_cost_usd, b.engine_cost_usd);
  EXPECT_EQ(a.profiler_cost_usd, b.profiler_cost_usd);
}

RunSpec BaseSpec(bool ivf, bool per_query_depth) {
  RunSpec spec;
  spec.dataset = "musique";
  spec.num_queries = 15;
  spec.arrival_rate = 2.0;
  spec.system = SystemKind::kMetis;
  spec.seed = 23;
  spec.scheduler.per_query_depth = per_query_depth;
  if (ivf) {
    spec.retrieval.backend = RetrievalIndexOptions::Backend::kIvf;
    spec.retrieval.nlist = 16;
    spec.retrieval.nprobe = 4;
  }
  return spec;
}

TEST(DeterminismTest, FlatBackendReplaysBitIdentically) {
  for (bool depth : {false, true}) {
    RunSpec spec = BaseSpec(/*ivf=*/false, depth);
    RunMetrics first = RunExperiment(spec);
    RunMetrics second = RunExperiment(spec);
    ASSERT_EQ(first.records.size(), 15u) << "per_query_depth=" << depth;
    ExpectBitIdentical(first, second);
  }
}

TEST(DeterminismTest, IvfBackendReplaysBitIdentically) {
  for (bool depth : {false, true}) {
    RunSpec spec = BaseSpec(/*ivf=*/true, depth);
    RunMetrics first = RunExperiment(spec);
    RunMetrics second = RunExperiment(spec);
    ASSERT_EQ(first.records.size(), 15u) << "per_query_depth=" << depth;
    EXPECT_GT(first.mean_probes, 0.0);
    ExpectBitIdentical(first, second);
  }
}

TEST(DeterminismTest, FlatBackendIgnoresPerQueryDepthBitForBit) {
  // On the exact backend the per-query quality is threaded end to end but
  // ignored by the index — so flipping the flag must move NOTHING. This is
  // the "flag off == PR 3" parity on the paper's default setup.
  RunMetrics off = RunExperiment(BaseSpec(/*ivf=*/false, /*per_query_depth=*/false));
  RunMetrics on = RunExperiment(BaseSpec(/*ivf=*/false, /*per_query_depth=*/true));
  ExpectBitIdentical(off, on, /*compare_retrieval_quality=*/false);
}

// --- Pinned whole-run digests ---

// Order-sensitive FNV-1a over the raw bytes of scalar values; strings and
// vectors are length-prefixed so adjacent fields cannot alias.
class Digest {
 public:
  template <typename T>
  void Add(T value) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      h_ = (h_ ^ b) * 0x100000001B3ull;
    }
  }
  void Add(const std::string& s) {
    Add(s.size());
    for (char c : s) {
      Add(c);
    }
  }
  template <typename T>
  void Add(const std::vector<T>& values) {
    Add(values.size());
    for (const T& v : values) {
      Add(v);
    }
  }
  void Add(const Samples& samples) { Add(samples.values()); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

void AddConfig(Digest& h, const RagConfig& c) {
  h.Add(c.method);
  h.Add(c.num_chunks);
  h.Add(c.intermediate_tokens);
}

void AddRecord(Digest& h, const QueryRecord& r) {
  h.Add(r.query_id);
  h.Add(r.system);
  AddConfig(h, r.config);
  const RetrievalQuality& q = r.retrieval_quality;
  h.Add(q.mode);
  h.Add(q.nprobe);
  // Zeros where the deleted precision and rerank_factor fields were hashed,
  // so every spec that never set them keeps its pinned digest.
  h.Add(uint8_t{0});
  h.Add(size_t{0});
  h.Add(q.hybrid);
  h.Add(q.dense_weight);
  h.Add(q.lexical_weight);
  h.Add(q.filter.source);
  h.Add(q.filter.time_bucket);
  h.Add(q.filter.section);
  const QueryProfile& p = r.profile;
  h.Add(p.high_complexity);
  h.Add(p.requires_joint);
  h.Add(p.num_info_pieces);
  h.Add(p.summary_min_tokens);
  h.Add(p.summary_max_tokens);
  h.Add(p.confidence);
  h.Add(p.task_type);
  h.Add(p.time_bucket);
  h.Add(r.profile_was_bad);
  h.Add(r.low_confidence_fallback);
  h.Add(r.scheduler_fallback);
  h.Add(r.profiler_delay);
  h.Add(r.arrival_time);
  h.Add(r.finish_time);
  h.Add(r.e2e_delay);
  const RagResult& res = r.result;
  h.Add(res.query_id);
  AddConfig(h, res.config);
  h.Add(res.answer_text);
  h.Add(res.f1);
  h.Add(res.precision);
  h.Add(res.recall);
  h.Add(res.exec_start);
  h.Add(res.finish_time);
  h.Add(res.llm_calls);
  h.Add(res.total_prompt_tokens);
  h.Add(res.total_output_tokens);
  h.Add(res.retrieved_chunks);
  h.Add(res.gold_facts_retrieved);
  h.Add(res.gold_facts_total);
  h.Add(r.tenant);
  h.Add(r.rejected);
  h.Add(r.overload_level);
  h.Add(r.depth_shed);
  h.Add(r.synthesis_degraded);
  h.Add(r.precision_shed);
  h.Add(r.hybrid_shed);
  h.Add(r.est_service_s);
  h.Add(r.budget_trimmed);
  h.Add(r.depth_traded);
}

// The parts of RunMetrics::spec a runner derives per stack (the mixed runner
// resolves the scheduler options per dataset).
void AddSpec(Digest& h, const RunSpec& s) {
  h.Add(s.dataset);
  h.Add(s.num_queries);
  h.Add(s.arrival_rate);
  h.Add(s.serving_model);
  h.Add(s.system);
  AddConfig(h, s.fixed_config);
  h.Add(s.seed);
  h.Add(s.tenants.size());
  h.Add(s.overload.enabled);
  h.Add(s.ingest.num_ops);
  h.Add(s.retrieval.backend);
  const RetrievalDepthPolicyOptions& d = s.scheduler.depth;
  h.Add(d.base_probes);
  h.Add(d.probes_per_piece);
  h.Add(d.min_budget);
  h.Add(d.max_budget);
  h.Add(d.adaptive);
  h.Add(uint8_t{0});  // Deleted depth-policy precision and rerank_factor.
  h.Add(size_t{0});
  h.Add(s.scheduler.hybrid.enabled);
  // The router's weight table, hashed in the same place and order as ever so
  // that specs whose behaviour did not change keep their pins.
  for (QueryTaskType t : {QueryTaskType::kFactual, QueryTaskType::kSemantic,
                          QueryTaskType::kTemporal, QueryTaskType::kComparative}) {
    HybridBackendWeights w = HybridRouter::WeightsFor(t);
    h.Add(w.dense);
    h.Add(w.lexical);
  }
  h.Add(s.scheduler.cross_query_prefix);
  h.Add(s.scheduler.e2e_budget_s);
}

void AddEngine(Digest& h, const EngineStats& e) {
  h.Add(e.submitted);
  h.Add(e.completed);
  h.Add(e.steps);
  h.Add(e.busy_seconds);
  h.Add(e.prefill_tokens);
  h.Add(e.prefill_tokens_saved);
  h.Add(e.prefix_hits);
  h.Add(e.retained_prefix_hits);
  h.Add(e.retained_evictions);
  h.Add(e.retained_expirations);
  h.Add(e.decode_tokens);
  h.Add(e.peak_kv_bytes);
  h.Add(e.peak_queue_depth);
  h.Add(e.peak_queue_age_s);
}

uint64_t DigestOf(const std::vector<RunMetrics>& runs) {
  Digest h;
  h.Add(runs.size());
  for (const RunMetrics& m : runs) {
    h.Add(m.label);
    AddSpec(h, m.spec);
    h.Add(m.records.size());
    for (const QueryRecord& r : m.records) {
      AddRecord(h, r);
    }
    h.Add(m.delays);
    h.Add(m.f1s);
    h.Add(m.profiler_delays);
    h.Add(m.profiler_fracs);
    h.Add(m.sim_duration);
    h.Add(m.throughput_qps);
    h.Add(m.rejected_queries);
    h.Add(m.goodput_qps);
    h.Add(m.class_metrics.size());
    for (const TenantClassMetrics& c : m.class_metrics) {
      h.Add(c.name);
      h.Add(c.priority);
      h.Add(c.deadline_s);
      h.Add(c.offered);
      h.Add(c.completed);
      h.Add(c.rejected);
      h.Add(c.missed_deadline);
      h.Add(c.depth_shed);
      h.Add(c.synthesis_degraded);
      h.Add(uint64_t{0});  // Deleted class precision_shed counter.
      h.Add(c.delays);
      h.Add(c.goodput_qps);
    }
    h.Add(m.mean_probes);
    h.Add(m.probe_histogram);
    h.Add(m.hybrid.dense_searches);
    h.Add(m.hybrid.lexical_searches);
    h.Add(m.hybrid.fused_queries);
    const IngestMetrics& in = m.ingest;
    for (uint64_t v : {in.inserts, in.deletes, in.seals, in.compactions, in.retrains}) {
      h.Add(v);
    }
    for (size_t v : {in.live_chunks, in.segments, in.memtable_rows, in.tombstones}) {
      h.Add(v);
    }
    h.Add(m.engine_cost_usd);
    h.Add(m.profiler_cost_usd);
    AddEngine(h, m.engine_stats);
  }
  return h.value();
}

std::vector<TenantClass> ThreeTenants() {
  return {
      TenantClass{"interactive", /*priority=*/2, /*deadline_s=*/3.5, /*rate_share=*/0.2},
      TenantClass{"standard", /*priority=*/1, /*deadline_s=*/7.0, /*rate_share=*/0.3},
      TenantClass{"besteffort", /*priority=*/0, /*deadline_s=*/14.0, /*rate_share=*/0.5},
  };
}

void UseIvf(RetrievalIndexOptions& r) {
  r.backend = RetrievalIndexOptions::Backend::kIvf;
  r.nlist = 8;
  r.nprobe = 2;
}

void UseIngest(RetrievalIndexOptions& r, IngestOptions& ingest, int num_ops, double rate) {
  r.mutable_index = true;
  r.mutation.memtable_rows = 16;
  ingest.enabled = true;
  ingest.num_ops = num_ops;
  ingest.rate = rate;
  ingest.insert_fraction = 0.7;
}

std::string Hex(uint64_t v) {
  return StrFormat("0x%016llxull", static_cast<unsigned long long>(v));
}

struct PinnedSpec {
  const char* name;
  uint64_t digest;
};

RunSpec OneStackSpec(const std::string& name) {
  RunSpec s;
  s.dataset = "musique";
  s.num_queries = 12;
  s.arrival_rate = 3.0;
  s.seed = 29;
  if (name == "metis_flat") {
    // The base spec as is.
  } else if (name == "vllm_fixed") {
    s.dataset = "squad";
    s.system = SystemKind::kVllmFixed;
    s.fixed_config = RagConfig{SynthesisMethod::kMapReduce, 4, 60};
  } else if (name == "parrot_fixed") {
    s.dataset = "kg_rag_finsec";
    s.system = SystemKind::kParrotFixed;
  } else if (name == "adaptive_rag_llama_profiler") {
    s.dataset = "qmsum";
    s.num_queries = 8;
    s.system = SystemKind::kAdaptiveRag;
    s.profiler_model = "llama3.1-70b-api";
  } else if (name == "closed_loop") {
    s.num_queries = 8;
    s.arrival_rate = 0;
  } else if (name == "closed_loop_ingest") {
    s.dataset = "squad";
    s.num_queries = 6;
    s.arrival_rate = 0;
    UseIngest(s.retrieval, s.ingest, 30, 10.0);
  } else if (name == "shared_reuse_budget") {
    s.arrival_rate = 4.0;
    s.scheduler.cross_query_prefix = true;
    s.scheduler.prefix_retention_s = 3.0;
    s.scheduler.e2e_budget_s = 6.0;
    s.shared_workload.hot_fraction = 0.6;
    s.shared_workload.num_hot = 3;
  } else if (name == "no_prefix_sharing") {
    s.dataset = "squad";
    s.num_queries = 16;
    s.override_prefix_sharing = false;
  } else if (name == "gpt4o_serving") {
    s.num_queries = 8;
    s.serving_model = "gpt-4o-serving";
  } else if (name == "ivf_tenants_ladder_64qps") {
    s.dataset = "musique_topical";
    s.num_queries = 48;
    s.arrival_rate = 64.0;
    UseIvf(s.retrieval);
    s.scheduler.depth.adaptive = false;
    s.tenants = ThreeTenants();
    s.overload.enabled = true;
  } else if (name == "ivf_fixed_depth") {
    UseIvf(s.retrieval);
    s.scheduler.per_query_depth = false;
  } else if (name == "mutable_ingest_hybrid") {
    s.dataset = "squad_hybrid";
    s.num_queries = 16;
    s.arrival_rate = 4.0;
    s.retrieval.lexical = true;
    UseIngest(s.retrieval, s.ingest, 40, 8.0);
    s.scheduler.hybrid.enabled = true;
  } else if (name == "ingest_only") {
    s.num_queries = 0;
    s.system = SystemKind::kVllmFixed;
    UseIngest(s.retrieval, s.ingest, 40, 20.0);
  } else {
    ADD_FAILURE() << "unknown one-stack spec " << name;
  }
  return s;
}

MixedRunSpec MixedSpec(const std::string& name) {
  MixedRunSpec s;
  s.queries_per_dataset = 8;
  s.rate_per_dataset = 2.0;
  s.seed = 31;
  if (name == "mix_paper_four") {
    // The base spec as is: the paper's four datasets.
  } else if (name == "mix_repeated_ivf_vllm") {
    s.datasets = {"squad", "squad"};
    s.system = SystemKind::kVllmFixed;
    UseIvf(s.retrieval);
    s.scheduler.adaptive_nprobe = false;
    s.scheduler.nprobe_budget = 3;
  } else if (name == "mix_offline_depth") {
    s.datasets = {"squad", "musique_topical"};
    UseIvf(s.retrieval);
    s.per_dataset_depth = true;
    s.depth_calibration = MixedRunSpec::DepthCalibration::kOffline;
    s.calibrator.holdout_queries = 8;
  } else if (name == "mix_offline_depth_hybrid") {
    s.datasets = {"squad_hybrid", "musique_hybrid"};
    UseIvf(s.retrieval);
    s.retrieval.lexical = true;
    s.scheduler.hybrid.enabled = true;
    s.per_dataset_depth = true;
    s.depth_calibration = MixedRunSpec::DepthCalibration::kOffline;
    s.calibrator.holdout_queries = 8;
  } else if (name == "mix_profile_depth") {
    s.datasets = {"squad", "qmsum", "musique"};
    UseIvf(s.retrieval);
    s.per_dataset_depth = true;
  } else if (name == "mix_ingest_overload") {
    s.datasets = {"squad", "musique"};
    s.rate_per_dataset = 24.0;
    s.queries_per_dataset = 20;
    UseIngest(s.retrieval, s.ingest, 24, 12.0);
    s.tenants = ThreeTenants();
    s.overload.enabled = true;
  } else if (name == "mix_parrot_fixed_configs_reuse") {
    s.datasets = {"squad", "kg_rag_finsec", "qmsum"};
    s.system = SystemKind::kParrotFixed;
    s.fixed_configs = {RagConfig{SynthesisMethod::kStuff, 4, 0},
                       RagConfig{SynthesisMethod::kMapRerank, 3, 0}};
    s.scheduler.cross_query_prefix = true;
  } else if (name == "mix_one_dataset_adaptive") {
    s.datasets = {"musique"};
    s.system = SystemKind::kAdaptiveRag;
  } else if (name == "mix_flash_crowd_tenants") {
    s.datasets = {"squad", "qmsum"};
    s.arrivals.kind = ArrivalKind::kFlashCrowd;
    s.arrivals.flash_start_s = 1.0;
    s.arrivals.flash_duration_s = 2.0;
    s.tenants = ThreeTenants();
  } else if (name == "mix_ingest_only") {
    s.datasets = {"squad", "musique"};
    s.queries_per_dataset = 0;
    s.system = SystemKind::kVllmFixed;
    UseIngest(s.retrieval, s.ingest, 20, 20.0);
  } else {
    ADD_FAILURE() << "unknown mixed spec " << name;
  }
  return s;
}

TEST(DeterminismTest, PinnedOneStackDigests) {
  const PinnedSpec pinned[] = {
      {"metis_flat", 0x7167741e5ea05ae8ull},
      {"vllm_fixed", 0x7d354f54333dea78ull},
      {"parrot_fixed", 0x4a7ea1c2603f4f76ull},
      {"adaptive_rag_llama_profiler", 0x270511788cb89d84ull},
      {"closed_loop", 0xfd1bf68e1bf45e86ull},
      {"closed_loop_ingest", 0xb530a434fa9f0166ull},
      {"shared_reuse_budget", 0xbdb112a5f88ca3cdull},
      {"no_prefix_sharing", 0xbfe4d09a409c7bc2ull},
      {"gpt4o_serving", 0x9fb3afc027e6c399ull},
      {"ivf_tenants_ladder_64qps", 0x19cc00ac7b5f9a6full},
      {"ivf_fixed_depth", 0x97e3eb4e9e2667ceull},
      {"mutable_ingest_hybrid", 0x046fc340b36ba669ull},
      {"ingest_only", 0x9cf24b33cf4966c0ull},
  };
  for (const PinnedSpec& p : pinned) {
    uint64_t got = DigestOf({RunExperiment(OneStackSpec(p.name))});
    EXPECT_EQ(Hex(got), Hex(p.digest)) << p.name;
  }
}

TEST(DeterminismTest, PinnedMixedDigests) {
  const PinnedSpec pinned[] = {
      {"mix_paper_four", 0xc4fda3a9565e9e22ull},
      {"mix_repeated_ivf_vllm", 0x4b2ae1e23f6684a3ull},
      {"mix_offline_depth", 0xd00fe45ae0a8a294ull},
      {"mix_offline_depth_hybrid", 0xf0240f106865a740ull},
      {"mix_profile_depth", 0x1de24f459275bc87ull},
      {"mix_ingest_overload", 0x513a87ef38fcb439ull},
      {"mix_parrot_fixed_configs_reuse", 0x0e796e34f4e35bc5ull},
      {"mix_one_dataset_adaptive", 0xa74d67116aaeeb0dull},
      {"mix_flash_crowd_tenants", 0x4243fe1f9dd75e7bull},
      {"mix_ingest_only", 0x04510d74db233d31ull},
  };
  for (const PinnedSpec& p : pinned) {
    uint64_t got = DigestOf(RunMixedExperiment(MixedSpec(p.name)));
    EXPECT_EQ(Hex(got), Hex(p.digest)) << p.name;
  }
}

}  // namespace
}  // namespace metis
