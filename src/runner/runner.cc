#include "src/runner/runner.h"

#include <deque>
#include <map>
#include <mutex>
#include <tuple>
#include <unordered_set>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/vectordb/mutable_index.h"

namespace metis {

const char* SystemKindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kVllmFixed:
      return "vllm_fixed";
    case SystemKind::kParrotFixed:
      return "parrot*";
    case SystemKind::kAdaptiveRag:
      return "adaptive_rag*";
    case SystemKind::kMetis:
      return "metis";
  }
  return "unknown";
}

double DefaultKvPoolGib(const ModelSpec& model) {
  // A40 server: 48 GiB/GPU at vLLM's 0.9 utilization, minus quantized weights
  // and activation workspace, per GPU; tensor-parallel models pool GPUs.
  double per_gpu = 48.0 * 0.9 - 4.0;
  double pool = per_gpu * model.num_gpus - model.weight_bytes / kGiB;
  // The evaluation server co-hosts both serving models plus fragmentation,
  // activation headroom and worst-case reservations (§7.1), so a deployment
  // sees ~12% of the residual as usable KV pool — which keeps KV memory a
  // binding-under-load resource, matching the paper's Fig. 8 regime
  // (single-digit-GiB free memory against multi-GiB stuff prompts).
  pool *= 0.12;
  return std::max(pool, 2.5);
}

namespace {

// Cache-key encoding of the retrieval backend configuration: two databases
// built under different options must not share a cache entry — and options
// MakeIndex ignores must not split one. The flat backend ignores every
// IVF-only field, so its key carries only the backend (an nlist sweep
// over flat-backend specs reuses one dataset); %.17g round-trips doubles
// exactly, so near-identical distance_ratio values cannot alias.
std::string IndexOptionsKey(const RetrievalIndexOptions& o) {
  // The lexical and mutable-index flags apply to every backend: a lexical
  // database builds a BM25 index a dense-only build lacks, and a mutable one
  // wraps its backend in a MutableIndex. Only that MutableIndex reads the
  // `mutation` thresholds, so they key mutable entries only.
  std::string common = StrFormat("lex%d:mut%d", o.lexical ? 1 : 0, o.mutable_index ? 1 : 0);
  if (o.mutable_index) {
    const MutableIndexOptions& m = o.mutation;
    common += StrFormat(":%zu:%zu:%.17g:%zu", m.memtable_rows, m.compact_segments,
                        m.retrain_delta_fraction, m.max_rows);
  }
  if (o.backend == RetrievalIndexOptions::Backend::kFlat) {
    return StrFormat("b%d:%s", static_cast<int>(o.backend), common.c_str());
  }
  return StrFormat("b%d:l%zu:p%zu:a%d:m%zu:x%zu:r%.17g:t%llu:%s",
                   static_cast<int>(o.backend), o.nlist, o.nprobe,
                   o.adaptive.enabled ? 1 : 0, o.adaptive.min_probes, o.adaptive.max_probes,
                   o.adaptive.distance_ratio,
                   static_cast<unsigned long long>(o.train_seed), common.c_str());
}

// Mutex-guarded bounded dataset cache (benches may call runners from pool
// threads; long bench binaries sweep many corpora). Eviction is
// oldest-insertion-first; evicted datasets stay alive for whoever still holds
// their shared_ptr.
struct DatasetCache {
  using Key = std::tuple<std::string, int, std::string, uint64_t, std::string>;
  std::mutex mu;
  std::map<Key, std::shared_ptr<const Dataset>> entries;
  std::deque<Key> insertion_order;
};

DatasetCache& TheDatasetCache() {
  static DatasetCache* cache = new DatasetCache;  // Leaked: process-lifetime.
  return *cache;
}

// The one generation recipe behind both the cache and the private instances
// AcquireDataset makes: private instances must be deterministically
// identical to the cached one, so the recipe must live in exactly one place.
std::shared_ptr<Dataset> GenerateDatasetUncached(
    const std::string& dataset_name, int num_queries, const std::string& embedding_model,
    uint64_t seed, const RetrievalIndexOptions& index_options) {
  DatasetGenerator generator(GetDatasetProfile(dataset_name), seed);
  return generator.Generate(num_queries, embedding_model, index_options);
}

}  // namespace

std::shared_ptr<const Dataset> GetOrGenerateDataset(const std::string& dataset_name,
                                                    int num_queries,
                                                    const std::string& embedding_model,
                                                    uint64_t seed,
                                                    const RetrievalIndexOptions& index_options) {
  DatasetCache& cache = TheDatasetCache();
  DatasetCache::Key key{dataset_name, num_queries, embedding_model, seed,
                        IndexOptionsKey(index_options)};
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.entries.find(key);
    if (it != cache.entries.end()) {
      return it->second;
    }
  }
  // Generate outside the lock: generation is seconds-long, and concurrent
  // misses on distinct keys must not serialize. Two racing misses on the SAME
  // key both generate (deterministically identical) datasets; the first
  // insert wins and the loser adopts it.
  std::shared_ptr<const Dataset> ds =
      GenerateDatasetUncached(dataset_name, num_queries, embedding_model, seed, index_options);
  std::lock_guard<std::mutex> lock(cache.mu);
  auto [it, inserted] = cache.entries.emplace(key, ds);
  if (!inserted) {
    return it->second;
  }
  cache.insertion_order.push_back(key);
  while (cache.entries.size() > kDatasetCacheMaxEntries && !cache.insertion_order.empty()) {
    cache.entries.erase(cache.insertion_order.front());
    cache.insertion_order.pop_front();
  }
  return ds;
}

void ClearDatasetCache() {
  DatasetCache& cache = TheDatasetCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.entries.clear();
  cache.insertion_order.clear();
}

std::vector<RagConfig> FixedConfigMenu(const DatasetProfile& profile) {
  // A practitioner's grid: every method at small/medium/large retrieval
  // widths, map_reduce at two intermediate lengths. Hand-picked offline, as
  // real deployments do (§1).
  std::vector<int> chunk_grid;
  if (profile.max_facts <= 2) {
    chunk_grid = {1, 2, 5, 10};
  } else {
    chunk_grid = {2, 5, 10, 20, 30};
  }
  std::vector<RagConfig> menu;
  for (int k : chunk_grid) {
    menu.push_back(RagConfig{SynthesisMethod::kMapRerank, k, 0});
    menu.push_back(RagConfig{SynthesisMethod::kStuff, k, 0});
    menu.push_back(RagConfig{SynthesisMethod::kMapReduce, k, 60});
    menu.push_back(RagConfig{SynthesisMethod::kMapReduce, k, 150});
  }
  return menu;
}

namespace {

// One dataset's share of a serving run, as a driver plans it: what it
// serves, under which options, and the seeds of its streams.
struct StackPlan {
  // The one-dataset spec this stack is equivalent to, carrying the stack's
  // resolved scheduler options; it becomes RunMetrics::spec.
  RunSpec spec;
  std::shared_ptr<const Dataset> dataset;
  Dataset* live_dataset = nullptr;  // Set for a private instance ingest may mutate.
  uint64_t arrival_seed = 0;
  uint64_t tenant_seed = 0;  // Also seeds shared-workload shaping.
  uint64_t ingest_seed = 0;
};

// What ServeStacks builds for one plan on the shared engine.
struct DatasetStack {
  std::unique_ptr<SynthesisExecutor> executor;
  std::unique_ptr<ApiLlmClient> profiler_api;
  std::unique_ptr<QueryProfiler> profiler;
  std::unique_ptr<JointScheduler> scheduler;
  std::unique_ptr<ServingSystem> system;
};

// Sets plan.dataset. Mutable-index stacks always own a private instance: the
// ingest stream mutates it, and a cached corpus must stay immutable for every
// other spec resolving to the same entry. `private_copy` gives any stack one
// (a repeated dataset name in a mix would otherwise share one index and its
// probe counters). Generation is deterministic, so a private instance is
// identical to the cached one.
void AcquireDataset(StackPlan& plan, bool private_copy) {
  const RunSpec& s = plan.spec;
  if (s.retrieval.mutable_index || private_copy) {
    std::shared_ptr<Dataset> priv = GenerateDatasetUncached(
        s.dataset, s.num_queries, s.embedding_model, s.seed, s.retrieval);
    plan.live_dataset = priv.get();
    plan.dataset = std::move(priv);
  } else {
    plan.dataset = GetOrGenerateDataset(s.dataset, s.num_queries, s.embedding_model, s.seed,
                                        s.retrieval);
  }
}

// Routes each query to an SLO class with probability proportional to
// rate_share, on its own Rng stream so arrival times are untouched. Empty
// `tenants` leaves every query in the implicit default class (tenant 0) and
// draws nothing — bit-for-bit parity with the pre-tenant runner.
void AssignTenants(std::vector<RagQuery>& queries, const std::vector<TenantClass>& tenants,
                   uint64_t seed) {
  if (tenants.empty()) {
    return;
  }
  std::vector<double> cumulative;
  double total = 0;
  for (const TenantClass& t : tenants) {
    total += std::max(0.0, t.rate_share);
    cumulative.push_back(total);
  }
  Rng rng(seed ^ 0x7E4A47ull);
  for (RagQuery& q : queries) {
    if (total <= 0) {
      q.tenant = 0;
      continue;
    }
    double u = rng.NextDouble() * total;
    size_t idx = std::lower_bound(cumulative.begin(), cumulative.end(), u) -
                 cumulative.begin();
    q.tenant = static_cast<int>(std::min(idx, tenants.size() - 1));
  }
}

// Shared-query shaping (SharedWorkloadOptions): replaces hot_fraction of the
// stream with duplicates of the first num_hot queries, on its own Rng stream.
// A duplicate is a full template copy — text, golds, id — so retrieval,
// generation behaviour, and F1 scoring all see the template query (query ids
// therefore repeat in the records); only the slot's arrival time and tenant
// survive. Called after tenants are assigned and before arrivals, and a no-op
// (no draws) at hot_fraction == 0.
void ApplySharedWorkload(std::vector<RagQuery>& queries, const SharedWorkloadOptions& options,
                         uint64_t seed) {
  if (options.hot_fraction <= 0 || queries.empty()) {
    return;
  }
  int num_hot = std::clamp(options.num_hot, 1, static_cast<int>(queries.size()));
  std::vector<RagQuery> templates(queries.begin(), queries.begin() + num_hot);
  Rng rng(seed ^ 0x4077D05Eull);
  for (RagQuery& q : queries) {
    if (!rng.Bernoulli(options.hot_fraction)) {
      continue;
    }
    const RagQuery& t = templates[rng.Index(templates.size())];
    SimTime arrival = q.arrival_time;
    int tenant = q.tenant;
    q = t;
    q.arrival_time = arrival;
    q.tenant = tenant;
  }
}

// Shared aggregation over a run's records: overall + per-class Samples,
// duration window, throughput (completions only), goodput (in-deadline
// completions), and rejection accounting. With overload control off there
// are no rejected records and no deadlines, so throughput == goodput and
// every value matches the historical aggregation bit-for-bit.
void AggregateRecords(RunMetrics& metrics, const std::vector<TenantClass>& tenants,
                      SimTime first_arrival) {
  metrics.class_metrics.clear();
  if (tenants.empty()) {
    metrics.class_metrics.emplace_back();  // Implicit "default" class.
  } else {
    for (const TenantClass& t : tenants) {
      TenantClassMetrics cm;
      cm.name = t.name;
      cm.priority = t.priority;
      cm.deadline_s = t.deadline_s;
      metrics.class_metrics.push_back(std::move(cm));
    }
  }
  SimTime last_finish = first_arrival;
  uint64_t good_total = 0;
  std::vector<uint64_t> good_per_class(metrics.class_metrics.size(), 0);
  for (const QueryRecord& rec : metrics.records) {
    size_t c = rec.tenant >= 0 &&
                       static_cast<size_t>(rec.tenant) < metrics.class_metrics.size()
                   ? static_cast<size_t>(rec.tenant)
                   : 0;
    TenantClassMetrics& cm = metrics.class_metrics[c];
    ++cm.offered;
    if (rec.rejected) {
      ++cm.rejected;
      ++metrics.rejected_queries;
      continue;
    }
    ++cm.completed;
    cm.delays.Add(rec.e2e_delay);
    if (cm.deadline_s > 0 && rec.e2e_delay > cm.deadline_s) {
      ++cm.missed_deadline;
    } else {
      ++good_total;
      ++good_per_class[c];
    }
    if (rec.depth_shed) {
      ++cm.depth_shed;
    }
    if (rec.synthesis_degraded) {
      ++cm.synthesis_degraded;
    }
    metrics.delays.Add(rec.e2e_delay);
    metrics.f1s.Add(rec.result.f1);
    if (rec.profiler_delay > 0) {
      metrics.profiler_delays.Add(rec.profiler_delay);
      if (rec.e2e_delay > 0) {
        metrics.profiler_fracs.Add(rec.profiler_delay / rec.e2e_delay);
      }
    }
    last_finish = std::max(last_finish, rec.finish_time);
  }
  metrics.sim_duration = std::max(1e-9, last_finish - first_arrival);
  uint64_t completed_total = 0;
  for (size_t c = 0; c < metrics.class_metrics.size(); ++c) {
    TenantClassMetrics& cm = metrics.class_metrics[c];
    completed_total += cm.completed;
    cm.goodput_qps = static_cast<double>(good_per_class[c]) / metrics.sim_duration;
  }
  metrics.throughput_qps = static_cast<double>(completed_total) / metrics.sim_duration;
  metrics.goodput_qps = static_cast<double>(good_total) / metrics.sim_duration;
}

// Schedules the spec'd ingest stream into `sim`. Op times are Poisson at
// opts.rate from their own Rng stream; the insert/delete choice,
// insert contents, and delete victims come from a second Rng stream.
// Delete victims are drawn at EXECUTION time from the then-live pool — still
// deterministic, because the simulator fires events in timestamp order. The
// closure state (victim pool, Rng) is shared across ops via shared_ptrs.
void ScheduleIngest(Simulator& sim, Dataset* dataset, const IngestOptions& opts,
                    uint64_t seed) {
  VectorDatabase* db = &dataset->mutable_db();
  METIS_CHECK(db->mutable_index() != nullptr);
  METIS_CHECK_GT(opts.rate, 0);
  // Deletable pool: live chunks minus gold-bearing ones, so F1 stays
  // comparable with a static run of the same queries.
  auto victims = std::make_shared<std::vector<ChunkId>>();
  std::unordered_set<ChunkId> gold;
  for (const RagQuery& q : dataset->queries()) {
    for (int32_t fid : q.gold_fact_ids) {
      gold.insert(dataset->fact(fid).chunk_id);
    }
  }
  for (ChunkId id = 0; id < static_cast<ChunkId>(db->num_chunks()); ++id) {
    if (db->chunk_live(id) && gold.count(id) == 0) {
      victims->push_back(id);
    }
  }
  uint64_t op_state = seed ^ 0x16357ull;
  auto rng = std::make_shared<Rng>(SplitMix64(op_state));
  uint64_t time_state = seed ^ 0x71A357ull;
  Rng time_rng(SplitMix64(time_state));
  std::vector<SimTime> times = PoissonArrivalTimes(time_rng, opts.num_ops, opts.rate);
  const int chunk_tokens = dataset->profile().chunk_tokens;
  const double insert_fraction = opts.insert_fraction;
  for (SimTime t : times) {
    sim.ScheduleAt(t, [db, victims, rng, chunk_tokens, insert_fraction]() {
      if (rng->Bernoulli(insert_fraction) || victims->empty()) {
        // A synthetic filler chunk out of unique pseudo-words: it lands in
        // its own corner of embedding space, like the generator's own filler.
        Chunk c;
        std::string text;
        for (int w = 0; w < 12; ++w) {
          if (w > 0) {
            text += ' ';
          }
          text += StrFormat("ing%llx", static_cast<unsigned long long>(rng->NextU64()));
        }
        c.text = std::move(text);
        c.token_count = chunk_tokens;
        ChunkId id = db->InsertChunks({std::move(c)}).front();
        victims->push_back(id);  // Freshly inserted chunks are deletable too.
      } else {
        size_t pick = rng->Index(victims->size());
        ChunkId id = (*victims)[pick];
        (*victims)[pick] = victims->back();
        victims->pop_back();
        METIS_CHECK_EQ(db->DeleteChunks({id}), 1u);
      }
    });
  }
}

// End-of-run snapshot of the mutable index's counters into RunMetrics::ingest
// (no-op for static-index runs, leaving the zeros).
void FillIngestMetrics(RunMetrics& metrics, const VectorDatabase& db) {
  const MutableIndex* mi = db.mutable_index();
  if (mi == nullptr) {
    return;
  }
  MutableIndexStats s = mi->stats();
  metrics.ingest.inserts = s.inserts;
  metrics.ingest.deletes = s.deletes;
  metrics.ingest.seals = s.seals;
  metrics.ingest.compactions = s.compactions;
  metrics.ingest.retrains = s.retrains;
  metrics.ingest.live_chunks = s.live_rows;
  metrics.ingest.segments = s.open_segments;
  metrics.ingest.memtable_rows = s.memtable_rows;
  metrics.ingest.tombstones = s.tombstones;
}

// The one serving run behind both public runners. Builds the engine, the
// behaviour model and the overload controller once and one dataset stack per
// plan; queues each stack's streams (its ingest ops before its query
// arrivals, stack after stack); runs the simulation to idle; and harvests one
// RunMetrics per stack. A closed-loop stack (arrival_rate <= 0, one-stack
// runs only) is served query by query, each drained before the next.
std::vector<RunMetrics> ServeStacks(const ServingSpec& spec, const std::vector<StackPlan>& plans) {
  const bool ingesting = spec.ingest.enabled && spec.ingest.num_ops > 0;
  if (ingesting) {
    METIS_CHECK(spec.retrieval.mutable_index);  // Live ingest needs the mutable index.
  }

  Simulator sim;
  const ModelSpec& model = GetModelSpec(spec.serving_model);
  EngineConfig ecfg;
  ecfg.model = model;
  double pool_gib = spec.kv_pool_gib > 0 ? spec.kv_pool_gib : DefaultKvPoolGib(model);
  ecfg.kv_pool_bytes = pool_gib * kGiB;
  ecfg.max_batched_tokens = spec.max_batched_tokens;
  bool batching = spec.system == SystemKind::kParrotFixed || spec.system == SystemKind::kMetis;
  if (spec.override_prefix_sharing.has_value()) {
    batching = *spec.override_prefix_sharing;
  }
  ecfg.prefix_sharing = batching;
  ecfg.policy = batching ? AdmissionPolicy::kGroupAware : AdmissionPolicy::kFcfs;
  if (spec.scheduler.cross_query_prefix) {
    // Cross-query reuse needs the engine to hold hot chunk prefixes across
    // the gap between queries. Retention is engine-wide, so the engine takes
    // the top-level scheduler's window (per-stack overrides only steer
    // grouping).
    ecfg.prefix_retention_s = spec.scheduler.prefix_retention_s;
  }
  LlmEngine engine(&sim, ecfg, spec.seed);
  BehaviorModel behavior(BehaviorParams{}, spec.seed ^ 0xBE4A11ull);
  // One controller for the engine: every METIS stack feeds it, so the ladder
  // reacts to the aggregate backlog.
  std::unique_ptr<OverloadController> overload;
  if (spec.overload.enabled && spec.system == SystemKind::kMetis) {
    overload = std::make_unique<OverloadController>(&engine, spec.tenants, spec.overload);
  }

  std::vector<RunMetrics> out(plans.size());
  std::vector<DatasetStack> stacks(plans.size());
  for (size_t d = 0; d < plans.size(); ++d) {
    const StackPlan& plan = plans[d];
    const JointSchedulerOptions& options = plan.spec.scheduler;
    DatasetStack& ds = stacks[d];
    ds.executor = std::make_unique<SynthesisExecutor>(&sim, &engine, &behavior,
                                                      plan.dataset.get(), spec.seed ^ 0x5E1Full);
    ds.executor->set_retrieval_quality(RetrievalQualityFromOptions(options));
    // Corpus-salted group keys keep cross-dataset chunk ids from aliasing on
    // the shared engine (SynthesisExecutor::ChunkPrefixGroup).
    ds.executor->set_cross_query_prefix(options.cross_query_prefix);
    auto sink = [records = &out[d].records](QueryRecord rec) { records->push_back(std::move(rec)); };

    if (spec.system == SystemKind::kAdaptiveRag || spec.system == SystemKind::kMetis) {
      ds.profiler_api = std::make_unique<ApiLlmClient>(&sim, GetModelSpec(spec.profiler_model),
                                                       spec.seed ^ (0xA91ull + d));
      ProfilerParams pparams = spec.profiler_model == "gpt-4o" ? Gpt4oProfilerParams()
                                                               : Llama70BProfilerParams();
      ds.profiler = std::make_unique<QueryProfiler>(&sim, ds.profiler_api.get(),
                                                    &plan.dataset->db().metadata(), pparams,
                                                    spec.seed ^ (0x9867ull + d));
      ds.scheduler = std::make_unique<JointScheduler>(&engine, ds.executor.get(), 10, options);
    }
    const RagConfig& fixed = plan.spec.fixed_config;
    switch (spec.system) {
      case SystemKind::kVllmFixed:
      case SystemKind::kParrotFixed: {
        const char* name = spec.system == SystemKind::kVllmFixed ? "vllm" : "parrot*";
        ds.system = std::make_unique<FixedConfigSystem>(
            &sim, ds.executor.get(), fixed,
            StrFormat("%s[%s]", name, RagConfigToString(fixed).c_str()), sink);
        break;
      }
      case SystemKind::kAdaptiveRag:
        ds.system = std::make_unique<AdaptiveRagSystem>(&sim, ds.executor.get(),
                                                        ds.profiler.get(), ds.scheduler.get(),
                                                        sink);
        break;
      case SystemKind::kMetis:
        ds.system = std::make_unique<MetisSystem>(&sim, ds.executor.get(), ds.profiler.get(),
                                                  ds.scheduler.get(), plan.dataset.get(),
                                                  spec.metis, sink, overload.get());
        break;
    }
  }

  // Every stack owns a distinct Dataset instance (repeats get private
  // copies), so this zeroes each index's probe and hybrid counters exactly
  // once, after offline calibration probed them and before any serving
  // traffic: each stack's counters then report its own traffic only.
  for (const StackPlan& plan : plans) {
    if (plan.dataset->db().ivf_index() != nullptr) {
      plan.dataset->db().ivf_index()->ResetProbeStats();
    }
    plan.dataset->db().ResetHybridStats();
  }

  // Each stack's throughput window starts at its OWN first arrival (0 for a
  // closed loop or a stack with no queries).
  std::vector<SimTime> first_arrival(plans.size(), 0);
  // Per-run copies of each stack's queries, so arrival times don't leak
  // across runs. They live until sim.Run() returns: systems and executors
  // refer to their queries by pointer (ServingSystem::Accept).
  std::vector<std::vector<RagQuery>> stack_queries(plans.size());
  for (size_t d = 0; d < plans.size(); ++d) {
    const StackPlan& plan = plans[d];
    ServingSystem* system = stacks[d].system.get();
    if (ingesting) {
      ScheduleIngest(sim, plan.live_dataset, spec.ingest, plan.ingest_seed);
    }
    std::vector<RagQuery>& queries = stack_queries[d];
    queries = plan.dataset->queries();
    AssignTenants(queries, spec.tenants, plan.tenant_seed);
    ApplySharedWorkload(queries, plan.spec.shared_workload, plan.tenant_seed);
    if (plan.spec.arrival_rate > 0) {
      AssignArrivals(queries, spec.arrivals, plan.spec.arrival_rate, plan.arrival_seed);
      if (!queries.empty()) {
        first_arrival[d] = queries.front().arrival_time;  // Arrival times increase.
      }
      for (const RagQuery& q : queries) {
        sim.ScheduleAt(q.arrival_time, [system, query = &q]() { system->Accept(*query); });
      }
    } else {
      // Closed loop (Fig. 19's low load): one query outstanding at a time.
      AssignSequentialArrivals(queries);
      for (const RagQuery& q : queries) {
        size_t expected = out[d].records.size() + 1;
        system->Accept(q);
        sim.Run();  // Drain until this query (and its events) complete.
        METIS_CHECK_GE(out[d].records.size(), expected);
      }
    }
  }
  sim.Run();

  // --- Harvest; engine cost attributed by processed-token share. ---
  double total_tokens = 0;
  for (const RunMetrics& metrics : out) {
    for (const QueryRecord& rec : metrics.records) {
      total_tokens += rec.result.total_prompt_tokens + rec.result.total_output_tokens;
    }
  }
  for (size_t d = 0; d < plans.size(); ++d) {
    RunMetrics& metrics = out[d];
    const VectorDatabase& db = plans[d].dataset->db();
    metrics.label = SystemKindName(spec.system);
    metrics.spec = plans[d].spec;
    AggregateRecords(metrics, spec.tenants, first_arrival[d]);
    metrics.engine_stats = engine.stats();
    // Fetched now, not before traffic: under a mutable index a retrain swaps
    // the base. Probe counters are carried across swaps (CopyProbeStatsFrom),
    // so readings stay cumulative for the run.
    if (const IvfL2Index* ivf = db.ivf_index(); ivf != nullptr) {
      metrics.mean_probes = ivf->mean_probes();
      metrics.probe_histogram = ivf->probe_histogram();
    }
    metrics.hybrid = db.hybrid_stats();
    FillIngestMetrics(metrics, db);
    if (model.api_model) {
      // API-served inference (the Fig. 13 GPT-4o comparison): per-token price.
      double cost = 0;
      for (const QueryRecord& rec : metrics.records) {
        cost += rec.result.total_prompt_tokens * model.usd_per_1m_input_tokens / 1e6 +
                rec.result.total_output_tokens * model.usd_per_1m_output_tokens / 1e6;
      }
      metrics.engine_cost_usd = cost;
    } else {
      double tokens = 0;
      for (const QueryRecord& rec : metrics.records) {
        tokens += rec.result.total_prompt_tokens + rec.result.total_output_tokens;
      }
      metrics.engine_cost_usd =
          engine.busy_cost_usd() * (total_tokens > 0 ? tokens / total_tokens : 0);
    }
    if (stacks[d].profiler_api) {
      metrics.profiler_cost_usd = stacks[d].profiler_api->total_cost_usd();
    }
  }
  return out;
}

}  // namespace

JointSchedulerOptions EffectiveSchedulerOptions(const MixedRunSpec& spec, const Dataset& dataset) {
  JointSchedulerOptions options = spec.scheduler;
  if (!spec.per_dataset_depth) {
    return options;  // Ablation off: the shared curve, bit-for-bit.
  }
  DepthCalibrator calibrator(spec.calibrator);
  const IvfL2Index* ivf = dataset.db().ivf_index();
  options.depth = spec.depth_calibration == MixedRunSpec::DepthCalibration::kOffline
                      ? calibrator.Calibrate(dataset)
                      : calibrator.DeriveFromProfile(dataset.profile(),
                                                     ivf != nullptr ? ivf->nlist() : 0);
  return options;
}

std::vector<RunMetrics> RunMixedExperiment(const MixedRunSpec& spec) {
  METIS_CHECK(!spec.datasets.empty());
  METIS_CHECK(!spec.fixed_configs.empty());
  // Open loop only: a closed loop would send every dataset's queries at t = 0.
  METIS_CHECK_GT(spec.rate_per_dataset, 0);
  std::vector<StackPlan> plans(spec.datasets.size());
  std::map<std::string, size_t> name_count;
  for (size_t d = 0; d < plans.size(); ++d) {
    StackPlan& plan = plans[d];
    RunSpec& s = plan.spec;
    static_cast<ServingSpec&>(s) = spec;
    s.dataset = spec.datasets[d];
    s.num_queries = spec.queries_per_dataset;
    s.arrival_rate = spec.rate_per_dataset;
    s.fixed_config = spec.fixed_configs[std::min(d, spec.fixed_configs.size() - 1)];
    AcquireDataset(plan, /*private_copy=*/name_count[s.dataset]++ > 0);
    // May probe the stack's index (offline calibration); ServeStacks resets
    // the counters before traffic.
    s.scheduler = EffectiveSchedulerOptions(spec, *plan.dataset);
    // Per-dataset seeds are mixed through SplitMix64: the raw
    // `seed ^ (0xD00D + d)` values differ only in their low bits for adjacent
    // d, and the stream functions XOR their own constants on top — nearby
    // datasets would get visibly correlated streams.
    uint64_t arrival_state = spec.seed ^ (0xD00Dull + d);
    uint64_t tenant_state = spec.seed ^ (0x7E7A47ull + d);
    uint64_t ingest_state = spec.seed ^ (0x1A6E57ull + d);
    plan.arrival_seed = SplitMix64(arrival_state);
    plan.tenant_seed = SplitMix64(tenant_state);
    plan.ingest_seed = SplitMix64(ingest_state);
  }
  std::vector<RunMetrics> out = ServeStacks(spec, plans);
  for (size_t d = 0; d < out.size(); ++d) {
    out[d].label += "/" + spec.datasets[d];
  }
  return out;
}

RunMetrics RunExperiment(const RunSpec& spec) {
  std::vector<StackPlan> plans(1);
  StackPlan& plan = plans[0];
  plan.spec = spec;
  AcquireDataset(plan, /*private_copy=*/false);
  // The historical one-dataset streams: every one draws from the raw seed.
  plan.arrival_seed = plan.tenant_seed = plan.ingest_seed = spec.seed;
  return std::move(ServeStacks(spec, plans).front());
}

RagResult RunSingleQuery(const Dataset& dataset, const RagQuery& query, const RagConfig& config,
                         const std::string& serving_model, uint64_t seed) {
  Simulator sim;
  const ModelSpec& model = GetModelSpec(serving_model);
  EngineConfig ecfg;
  ecfg.model = model;
  ecfg.kv_pool_bytes = DefaultKvPoolGib(model) * kGiB;
  LlmEngine engine(&sim, ecfg, seed);
  BehaviorModel behavior(BehaviorParams{}, seed ^ 0xBE4A11ull);
  SynthesisExecutor executor(&sim, &engine, &behavior, &dataset, seed ^ 0x5E1Full);

  RagResult out;
  bool finished = false;
  executor.Execute(query, config, [&](RagResult r) {
    out = std::move(r);
    finished = true;
  });
  sim.Run();
  METIS_CHECK(finished);
  return out;
}

}  // namespace metis
