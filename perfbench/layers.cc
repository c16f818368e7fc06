#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <unordered_set>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/core/joint_scheduler.h"
#include "src/core/mapping.h"
#include "src/llm/behavior.h"
#include "src/text/tokenizer.h"
#include "src/vectordb/lexical_index.h"

namespace perfbench {

using namespace metis;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Quantile(const Samples& s, double q) { return s.empty() ? 0 : s.Quantile(q); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Bytes the fp32 candidate scan streams per row (padded stride included).
size_t ScanBytesPerRow(const VectorDatabase& db) {
  if (const auto* flat = dynamic_cast<const FlatL2Index*>(&db.index())) {
    return flat->bytes_per_row(RetrievalPrecision::kFp32);
  }
  if (db.ivf_index() != nullptr) {
    return db.ivf_index()->bytes_per_row(RetrievalPrecision::kFp32);
  }
  // Mutable wrapper: its row pools use the same one-cache-line padding.
  size_t dim = db.embedder().dim();
  return (dim + 15) / 16 * 16 * sizeof(float);
}

// p-quantile of a probe histogram (bucket p = searches that probed p lists).
double HistogramQuantile(const std::vector<uint64_t>& hist, double q) {
  uint64_t total = 0;
  for (uint64_t c : hist) {
    total += c;
  }
  if (total == 0) {
    return 0;
  }
  uint64_t seen = 0;
  for (size_t p = 0; p < hist.size(); ++p) {
    seen += hist[p];
    if (static_cast<double>(seen) >= q * static_cast<double>(total)) {
      return static_cast<double>(p);
    }
  }
  return static_cast<double>(hist.size() - 1);
}

// What the layer replay of one serve measured.
struct Replay {
  Samples embed_us;     // Fresh-model query embedding, per served query.
  Samples retrieve_us;  // RetrieveBatch minus any memo-miss embedding.
  Samples tokenize_us;  // Tokenize over the query's retrieved chunk texts.
  Samples choose_us;    // JointScheduler::Choose on the query's profile.
  Samples insert_us;
  Samples delete_us;
  double rows_scored = 0;
  double scan_bytes = 0;
  uint64_t postings_scanned = 0;
  uint64_t replay_probes = 0;
  uint64_t coverage_mismatches = 0;
  uint64_t first_mismatch_query = 0;
};

// The scheduler a stack ran with, on an idle engine: Choose's cost per call
// is what the replay times, not its (load-dependent) answer.
struct ChooseStack {
  Simulator sim;
  std::unique_ptr<LlmEngine> engine;
  std::unique_ptr<BehaviorModel> behavior;
  std::unique_ptr<SynthesisExecutor> executor;
  std::unique_ptr<JointScheduler> scheduler;

  ChooseStack(const RunSpec& spec, const Dataset* dataset) {
    EngineConfig ecfg;
    ecfg.model = GetModelSpec(spec.serving_model);
    double pool_gib = spec.kv_pool_gib > 0 ? spec.kv_pool_gib : DefaultKvPoolGib(ecfg.model);
    ecfg.kv_pool_bytes = pool_gib * kGiB;
    ecfg.max_batched_tokens = spec.max_batched_tokens;
    ecfg.prefix_sharing = true;
    ecfg.policy = AdmissionPolicy::kGroupAware;
    if (spec.scheduler.cross_query_prefix) {
      ecfg.prefix_retention_s = spec.scheduler.prefix_retention_s;
    }
    engine = std::make_unique<LlmEngine>(&sim, ecfg, spec.seed);
    behavior = std::make_unique<BehaviorModel>(BehaviorParams{}, spec.seed);
    executor = std::make_unique<SynthesisExecutor>(&sim, engine.get(), behavior.get(), dataset,
                                                   spec.seed);
    scheduler = std::make_unique<JointScheduler>(engine.get(), executor.get(), 10, spec.scheduler);
  }
};

// Applies one run's insert/delete mix to a private copy of the corpus:
// synthetic filler inserts and uniformly drawn non-gold deletes, as the
// runner's ingest stream makes them.
class OpReplay {
 public:
  OpReplay(Dataset* dataset, const IngestMetrics& ingest, uint64_t seed)
      : dataset_(dataset), rng_(seed ^ 0x0B5EEDull) {
    std::unordered_set<ChunkId> gold;
    for (const RagQuery& q : dataset->queries()) {
      for (int32_t fid : q.gold_fact_ids) {
        gold.insert(dataset->fact(fid).chunk_id);
      }
    }
    const VectorDatabase& db = dataset->db();
    for (ChunkId id = 0; id < static_cast<ChunkId>(db.num_chunks()); ++id) {
      if (db.chunk_live(id) && gold.count(id) == 0) {
        victims_.push_back(id);
      }
    }
    ops_.assign(ingest.inserts, true);
    ops_.insert(ops_.end(), ingest.deletes, false);
    for (size_t i = ops_.size(); i > 1; --i) {  // Fisher-Yates.
      std::vector<bool>::swap(ops_[i - 1], ops_[rng_.Index(i)]);
    }
  }

  size_t total() const { return ops_.size(); }

  // Applies ops until `target` of them are done.
  void RunUntil(size_t target, Tracer* tracer, Replay* out) {
    VectorDatabase& db = dataset_->mutable_db();
    for (; next_ < std::min(target, ops_.size()); ++next_) {
      if (ops_[next_] || victims_.empty()) {
        Chunk c;
        std::string text;
        for (int w = 0; w < 12; ++w) {
          text += StrFormat("%sing%llx", w > 0 ? " " : "",
                            static_cast<unsigned long long>(rng_.NextU64()));
        }
        c.text = std::move(text);
        c.token_count = dataset_->profile().chunk_tokens;
        ScopedSpan span(tracer, "vectordb.insert");
        ChunkId id = db.InsertChunks({std::move(c)}).front();
        out->insert_us.Add(1e6 * span.Close());
        victims_.push_back(id);
      } else {
        size_t pick = rng_.Index(victims_.size());
        ChunkId id = victims_[pick];
        victims_[pick] = victims_.back();
        victims_.pop_back();
        ScopedSpan span(tracer, "vectordb.delete");
        db.DeleteChunks({id});
        out->delete_us.Add(1e6 * span.Close());
      }
    }
  }

 private:
  Dataset* dataset_;
  Rng rng_;
  std::vector<ChunkId> victims_;
  std::vector<bool> ops_;
  size_t next_ = 0;
};

// Replays one stack's served queries through the layers' public calls.
// `dataset` is the corpus the serve read (static) or a fresh private copy of
// it (mutable, then `ops` interleaves the run's write mix).
void ReplayStack(const RunMetrics& m, const Dataset& dataset, bool check_coverage,
                 OpReplay* ops, int track, Tracer* tracer, Replay* out) {
  const VectorDatabase& db = dataset.db();
  EmbeddingModel fresh(GetEmbeddingModel(m.spec.embedding_model));
  ChooseStack choose(m.spec, &dataset);
  const IvfL2Index* ivf = db.ivf_index();
  const LexicalIndex* lexical = db.lexical_index();
  const size_t bytes_per_row = ScanBytesPerRow(db);
  const double budget = m.spec.scheduler.e2e_budget_s;

  std::vector<const QueryRecord*> served;
  for (const QueryRecord& rec : m.records) {
    if (!rec.rejected) {
      served.push_back(&rec);
    }
  }
  std::stable_sort(served.begin(), served.end(), [](const QueryRecord* a, const QueryRecord* b) {
    return a->result.exec_start < b->result.exec_start;
  });

  for (size_t i = 0; i < served.size(); ++i) {
    const QueryRecord& rec = *served[i];
    if (ops != nullptr) {
      ops->RunUntil((i + 1) * ops->total() / served.size(), tracer, out);
    }
    const RagQuery& query = dataset.queries()[static_cast<size_t>(rec.query_id)];
    METIS_CHECK_EQ(query.id, rec.query_id);
    ScopedSpan query_span(tracer, "query", rec.query_id);

    double embed_s = 0;
    {
      ScopedSpan span(tracer, "embed.query", rec.query_id);
      Embedding e = fresh.Embed(query.text);
      embed_s = span.Close();
      METIS_CHECK_EQ(e.size(), db.embedder().dim());
    }
    out->embed_us.Add(1e6 * embed_s);

    const size_t k = static_cast<size_t>(rec.result.config.num_chunks);
    const size_t hits_before = db.query_cache_hits();
    const uint64_t probes_before = ivf != nullptr ? ivf->probes_issued() : 0;
    const uint64_t postings_before = lexical != nullptr ? lexical->stats().postings_scanned : 0;
    std::vector<std::vector<SearchHit>> hits;
    double retrieve_s = 0;
    {
      ScopedSpan span(tracer, "vectordb.retrieve", rec.query_id);
      hits = db.RetrieveBatch({query.text}, k, std::vector<RetrievalQuality>{rec.retrieval_quality});
      retrieve_s = span.Close();
    }
    const bool memo_miss = db.query_cache_hits() == hits_before;
    if (memo_miss) {
      retrieve_s = std::max(0.0, retrieve_s - embed_s);
    }
    out->retrieve_us.Add(1e6 * retrieve_s);
    const RetrievalQuality& quality = rec.retrieval_quality;
    if (!quality.hybrid || quality.dense_weight > 0) {
      double rows = static_cast<double>(db.index().size());
      if (ivf != nullptr) {
        uint64_t probes = ivf->probes_issued() - probes_before;
        out->replay_probes += probes;
        rows = static_cast<double>(probes) * rows / static_cast<double>(ivf->nlist());
      }
      out->rows_scored += rows;
      out->scan_bytes += rows * static_cast<double>(bytes_per_row);
    }
    if (lexical != nullptr) {
      out->postings_scanned += lexical->stats().postings_scanned - postings_before;
    }

    std::vector<ChunkId> ids;
    for (const SearchHit& h : hits.front()) {
      ids.push_back(h.id);
    }
    if (check_coverage) {
      std::unordered_set<ChunkId> got(ids.begin(), ids.end());
      int covered = 0;
      for (int32_t fid : query.gold_fact_ids) {
        covered += got.count(dataset.fact(fid).chunk_id) > 0 ? 1 : 0;
      }
      if (covered != rec.result.gold_facts_retrieved && out->coverage_mismatches++ == 0) {
        out->first_mismatch_query = static_cast<uint64_t>(rec.query_id);
      }
    }

    {
      // What the serve tokenizes for this query: the profiler reads the query
      // once, the executor once per retrieved chunk (DescribeChunk), and F1
      // scoring reads the answer.
      ScopedSpan span(tracer, "text.tokenize", rec.query_id);
      size_t tokens = Tokenize(rec.result.answer_text).size();
      for (size_t c = 0; c <= ids.size(); ++c) {
        tokens += Tokenize(query.text).size();
      }
      out->tokenize_us.Add(1e6 * span.Close());
      METIS_CHECK_GT(tokens, 0u);
    }

    {
      PrunedConfigSpace space =
          RuleBasedMapping(rec.profile, static_cast<int>(db.num_chunks()));
      int query_tokens = static_cast<int>(CountTokens(query.text));
      double remaining = budget > 0 ? std::max(0.0, budget - rec.profiler_delay) : -1;
      ScopedSpan span(tracer, "core.choose", rec.query_id);
      SchedulerDecision d = choose.scheduler->Choose(
          space, rec.profile, query_tokens, dataset.profile().max_output_tokens, remaining);
      out->choose_us.Add(1e6 * span.Close());
      METIS_CHECK_GE(d.config.num_chunks, 1);
    }
    query_span.Close();

    // The query's stages on the simulated clock.
    double profiled = rec.arrival_time + rec.profiler_delay;
    tracer->AddSim("profile", rec.arrival_time, profiled, track, rec.query_id);
    tracer->AddSim("wait", profiled, rec.result.exec_start, track, rec.query_id);
    tracer->AddSim("exec", rec.result.exec_start, rec.finish_time, track, rec.query_id);
  }
  if (ops != nullptr) {
    ops->RunUntil(ops->total(), tracer, out);
  }
}

}  // namespace

Outcome RunTraced(const Workload& w, Tracer* tracer) {
  Outcome out;
  std::vector<Corpus> corpora;  // Every instance's, parallel to Served::runs.
  for (size_t i = 0; i < w.seeds.size(); ++i) {
    for (Corpus& c : w.Corpora(i)) {
      corpora.push_back(std::move(c));
    }
  }
  const bool mutable_corpus = w.regenerates_in_serve();

  // --- Setup, one span per layer entry point. ---
  double generate_s = 0;
  double corpus_embed_s = 0;
  double build_s = 0;
  double corpus_rows = 0;
  {
    ScopedSpan setup(tracer, "setup");
    ThreadPool pool(ThreadPool::DefaultThreads());
    for (const Corpus& c : corpora) {
      std::unique_ptr<Dataset> ds;
      {
        ScopedSpan span(tracer, "workload.generate");
        ds = DatasetGenerator(GetDatasetProfile(c.dataset), c.seed)
                 .Generate(c.num_queries, c.embedding_model, c.index);
        generate_s += span.Close();
      }
      const VectorDatabase& db = ds->db();
      std::vector<std::string> texts;
      std::vector<Chunk> chunks;
      for (ChunkId id = 0; id < static_cast<ChunkId>(db.num_chunks()); ++id) {
        texts.push_back(db.chunk(id).text);
        chunks.push_back(db.chunk(id));
      }
      EmbeddingModel model(GetEmbeddingModel(c.embedding_model));
      {
        ScopedSpan span(tracer, "embed.corpus");
        std::vector<Embedding> embedded = model.EmbedBatch(texts, &pool);
        corpus_embed_s += span.Close();
        METIS_CHECK_EQ(embedded.size(), texts.size());
      }
      {
        ScopedSpan span(tracer, "vectordb.build");
        VectorDatabase fresh(model, db.metadata(), c.index);
        fresh.AddChunks(std::move(chunks), &pool);
        fresh.FinalizeIndex(&pool);
        build_s += span.Close();
      }
      corpus_rows += static_cast<double>(db.num_chunks());
      out.stamps.emplace_back(
          StrFormat("corpus.%s.seed%llu", c.dataset.c_str(),
                    static_cast<unsigned long long>(c.seed)),
          StrFormat("rows=%zu bytes_per_row=%zu full_scan_bytes=%zu", db.num_chunks(),
                    ScanBytesPerRow(db), db.num_chunks() * ScanBytesPerRow(db)));
    }
  }

  // --- Serve twice, as the end-to-end loop does (each instance from a freshly
  // set-up cache, so its query-embedding memo starts cold): untraced, then
  // with each instance's serve inside a span. The traced serve's static
  // corpora stay referenced for the replay.
  Served untraced;
  double wall_untraced = 0;
  for (size_t i = 0; i < w.seeds.size(); ++i) {
    SetUp(w, i);
    Clock::time_point start = Clock::now();
    untraced.Add(i, Serve(w, i));
    wall_untraced += Seconds(start);
  }
  Served served;
  double wall_traced = 0;
  std::vector<std::shared_ptr<const Dataset>> cached;
  double cache_hits = 0;
  for (size_t i = 0; i < w.seeds.size(); ++i) {
    SetUp(w, i);
    std::vector<size_t> hits_before;
    const size_t first = cached.size();
    if (!mutable_corpus) {
      for (const Corpus& c : w.Corpora(i)) {
        cached.push_back(
            GetOrGenerateDataset(c.dataset, c.num_queries, c.embedding_model, c.seed, c.index));
        hits_before.push_back(cached.back()->db().query_cache_hits());
      }
    }
    {
      ScopedSpan span(tracer, "serve");
      served.Add(i, Serve(w, i));
      wall_traced += span.Close();
    }
    for (size_t d = first; d < cached.size(); ++d) {
      cache_hits += static_cast<double>(cached[d]->db().query_cache_hits() - hits_before[d - first]);
    }
  }

  // --- Harvest every counter from the traced run before any replay touches
  // the shared indexes.
  const std::vector<RunMetrics>& runs = served.runs;
  const SimSummary sum = Summarize(w, served);
  const SimSummary sum_untraced = Summarize(w, untraced);
  out.attempted = sum.offered + sum_untraced.offered;
  out.failed = sum.lost + sum_untraced.lost;
  out.errors = CheckServe(w, served, sum);
  if (sum.digest != sum_untraced.digest || CounterDigest(served) != CounterDigest(untraced)) {
    out.errors.push_back(w.name + ": traced run's outputs or counters differ from the untraced run's");
  }

  Samples profile_s, profile_frac, wait_s, exec_s, est_err;
  double low_conf = 0, fallback = 0, trimmed = 0, traded = 0;
  double depth_shed = 0, synth_degraded = 0, precision_shed = 0, hybrid_shed = 0;
  double peak_level = 0;
  double stuff = 0, rerank = 0, reduce = 0;
  double chunks = 0, llm_calls = 0, prompt_tokens = 0, output_tokens = 0;
  double gold_hit = 0, gold_total = 0;
  std::vector<uint64_t> probe_hist;
  double probe_searches = 0, probe_total = 0;
  HybridSearchStats hybrid;
  IngestMetrics ingest;
  for (const RunMetrics& m : runs) {
    probe_hist.resize(std::max(probe_hist.size(), m.probe_histogram.size()));
    for (size_t p = 0; p < m.probe_histogram.size(); ++p) {
      probe_hist[p] += m.probe_histogram[p];
      probe_searches += static_cast<double>(m.probe_histogram[p]);
      probe_total += static_cast<double>(p * m.probe_histogram[p]);
    }
    hybrid.dense_searches += m.hybrid.dense_searches;
    hybrid.lexical_searches += m.hybrid.lexical_searches;
    hybrid.fused_queries += m.hybrid.fused_queries;
    ingest.seals += m.ingest.seals;
    ingest.compactions += m.ingest.compactions;
    ingest.retrains += m.ingest.retrains;
    ingest.segments += m.ingest.segments;
    ingest.tombstones += m.ingest.tombstones;
    for (const QueryRecord& rec : m.records) {
      peak_level = std::max(peak_level, static_cast<double>(rec.overload_level));
      if (rec.rejected) {
        continue;
      }
      const RagResult& r = rec.result;
      profile_s.Add(rec.profiler_delay);
      profile_frac.Add(Ratio(rec.profiler_delay, rec.e2e_delay));
      wait_s.Add(r.exec_start - rec.arrival_time - rec.profiler_delay);
      exec_s.Add(r.exec_delay());
      if (rec.est_service_s > 0 && r.exec_delay() > 0) {
        est_err.Add(std::abs(rec.est_service_s - r.exec_delay()) / r.exec_delay());
      }
      low_conf += rec.low_confidence_fallback ? 1 : 0;
      fallback += rec.scheduler_fallback ? 1 : 0;
      trimmed += rec.budget_trimmed ? 1 : 0;
      traded += rec.depth_traded ? 1 : 0;
      depth_shed += rec.depth_shed ? 1 : 0;
      synth_degraded += rec.synthesis_degraded ? 1 : 0;
      precision_shed += rec.precision_shed ? 1 : 0;
      hybrid_shed += rec.hybrid_shed ? 1 : 0;
      stuff += rec.config.method == SynthesisMethod::kStuff ? 1 : 0;
      rerank += rec.config.method == SynthesisMethod::kMapRerank ? 1 : 0;
      reduce += rec.config.method == SynthesisMethod::kMapReduce ? 1 : 0;
      chunks += r.retrieved_chunks;
      llm_calls += r.llm_calls;
      prompt_tokens += r.total_prompt_tokens;
      output_tokens += r.total_output_tokens;
      gold_hit += r.gold_facts_retrieved;
      gold_total += r.gold_facts_total;
    }
  }
  const double completed = static_cast<double>(sum.completed);

  // --- Replay, one stack at a time, never while a serve is in flight. ---
  Replay replay;
  {
    ScopedSpan span(tracer, "replay");
    for (size_t d = 0; d < runs.size(); ++d) {
      if (mutable_corpus) {
        const Corpus& c = corpora[d];
        std::unique_ptr<Dataset> priv = DatasetGenerator(GetDatasetProfile(c.dataset), c.seed)
                                            .Generate(c.num_queries, c.embedding_model, c.index);
        OpReplay ops(priv.get(), runs[d].ingest, c.seed);
        const size_t hits0 = priv->db().query_cache_hits();
        ReplayStack(runs[d], *priv, /*check_coverage=*/false, &ops, static_cast<int>(d), tracer,
                    &replay);
        // The serve's private corpus is gone; the replay's memo sees the
        // same query order, so its hits stand in for the serve's.
        cache_hits += static_cast<double>(priv->db().query_cache_hits() - hits0);
      } else {
        const IvfL2Index* ivf = cached[d]->db().ivf_index();
        if (ivf != nullptr) {
          ivf->ResetProbeStats();
        }
        ReplayStack(runs[d], *cached[d], /*check_coverage=*/true, nullptr, static_cast<int>(d),
                    tracer, &replay);
      }
    }
  }
  if (replay.coverage_mismatches > 0) {
    out.errors.push_back(StrFormat(
        "%s: replayed gold coverage differs from the run's on %llu queries (first: query %llu)",
        w.name.c_str(), static_cast<unsigned long long>(replay.coverage_mismatches),
        static_cast<unsigned long long>(replay.first_mismatch_query)));
  }
  if (!mutable_corpus && probe_searches > 0 &&
      static_cast<double>(replay.replay_probes) != probe_total) {
    out.errors.push_back(StrFormat("%s: replay probed %llu lists, the run %.0f", w.name.c_str(),
                                   static_cast<unsigned long long>(replay.replay_probes),
                                   probe_total));
  }

  const double retrieve_s = replay.retrieve_us.sum() / 1e6;
  const double tokenize_s = replay.tokenize_us.sum() / 1e6;
  const double choose_s = replay.choose_us.sum() / 1e6;
  // The serve embedded each query its memo missed, at about the replay's
  // fresh-model cost.
  const double embed_paid_s =
      std::max(0.0, completed - cache_hits) * replay.embed_us.mean() / 1e6;
  const EngineStats& e = sum.engine;
  const RunSpec& spec0 = runs.front().spec;
  const double pool_bytes =
      (spec0.kv_pool_gib > 0 ? spec0.kv_pool_gib
                             : DefaultKvPoolGib(GetModelSpec(spec0.serving_model))) *
      kGiB;
  const double wall_qps_untraced = Ratio(completed, wall_untraced);
  // A mutable corpus is regenerated inside the serve; that generation (timed
  // in the traced setup above) is not serving work, so the serve shares below
  // leave it out.
  const double serve_work_s = wall_traced - (mutable_corpus ? generate_s : 0);
  const double wall_qps_traced = Ratio(completed, wall_traced);

  out.metrics = {
      {"workload.generate_s", generate_s, "s"},
      {"embed.corpus_embed_s", corpus_embed_s, "s"},
      {"embed.query_embed_us", replay.embed_us.mean(), "us"},
      {"embed.query_cache_hit_frac", Ratio(cache_hits, completed), "frac"},
      {"text.tokenize_us", replay.tokenize_us.mean(), "us"},
      {"vectordb.corpus_rows", corpus_rows, "count"},
      {"vectordb.build_s", build_s, "s"},
      {"vectordb.retrieve_s", retrieve_s, "s"},
      {"vectordb.retrieve_us_p50", Quantile(replay.retrieve_us, 0.5), "us"},
      {"vectordb.retrieve_us_p99", Quantile(replay.retrieve_us, 0.99), "us"},
      {"vectordb.rows_scored", replay.rows_scored, "count"},
      {"vectordb.rows_per_s", Ratio(replay.rows_scored, retrieve_s), "1/s"},
      {"vectordb.scan_bytes", replay.scan_bytes, "bytes"},
      {"vectordb.serve_share", Ratio(retrieve_s, serve_work_s), "frac"},
      {"vectordb.mean_probes", Ratio(probe_total, probe_searches), "count"},
      {"vectordb.probe_p90", HistogramQuantile(probe_hist, 0.9), "count"},
      {"vectordb.insert_us_p50", Quantile(replay.insert_us, 0.5), "us"},
      {"vectordb.delete_us_p50", Quantile(replay.delete_us, 0.5), "us"},
      {"vectordb.seals", static_cast<double>(ingest.seals), "count"},
      {"vectordb.compactions", static_cast<double>(ingest.compactions), "count"},
      {"vectordb.retrains", static_cast<double>(ingest.retrains), "count"},
      {"vectordb.segments_end", static_cast<double>(ingest.segments), "count"},
      {"vectordb.tombstones_end", static_cast<double>(ingest.tombstones), "count"},
      {"vectordb.postings_scanned", static_cast<double>(replay.postings_scanned), "count"},
      {"hybrid.dense_searches", static_cast<double>(hybrid.dense_searches), "count"},
      {"hybrid.lexical_searches", static_cast<double>(hybrid.lexical_searches), "count"},
      {"hybrid.fused_queries", static_cast<double>(hybrid.fused_queries), "count"},
      {"profiler.delay_s_p50", Quantile(profile_s, 0.5), "s"},
      {"profiler.frac_p50", Quantile(profile_frac, 0.5), "frac"},
      {"profiler.low_conf_frac", Ratio(low_conf, completed), "frac"},
      {"core.choose_us", replay.choose_us.mean(), "us"},
      {"scheduler.fallback_frac", Ratio(fallback, completed), "frac"},
      {"scheduler.budget_trimmed", trimmed, "count"},
      {"scheduler.depth_traded", traded, "count"},
      {"scheduler.est_err_p50", Quantile(est_err, 0.5), "frac"},
      {"overload.depth_shed", depth_shed, "count"},
      {"overload.synthesis_degraded", synth_degraded, "count"},
      {"overload.precision_shed", precision_shed, "count"},
      {"overload.hybrid_shed", hybrid_shed, "count"},
      {"overload.rejected", static_cast<double>(sum.rejected), "count"},
      {"overload.missed_deadline", static_cast<double>(sum.completed - sum.good), "count"},
      {"overload.peak_level", peak_level, "rung"},
      {"synthesis.stuff_frac", Ratio(stuff, completed), "frac"},
      {"synthesis.map_rerank_frac", Ratio(rerank, completed), "frac"},
      {"synthesis.map_reduce_frac", Ratio(reduce, completed), "frac"},
      {"synthesis.chunks_mean", Ratio(chunks, completed), "count"},
      {"synthesis.llm_calls_mean", Ratio(llm_calls, completed), "count"},
      {"synthesis.prompt_tokens_mean", Ratio(prompt_tokens, completed), "tokens"},
      {"synthesis.output_tokens_mean", Ratio(output_tokens, completed), "tokens"},
      {"synthesis.gold_coverage", Ratio(gold_hit, gold_total), "frac"},
      {"stage.profile_s_p50", Quantile(profile_s, 0.5), "s"},
      {"stage.wait_s_p50", Quantile(wait_s, 0.5), "s"},
      {"stage.wait_s_p99", Quantile(wait_s, 0.99), "s"},
      {"stage.exec_s_p50", Quantile(exec_s, 0.5), "s"},
      {"stage.exec_s_p99", Quantile(exec_s, 0.99), "s"},
      {"engine.steps", static_cast<double>(e.steps), "count"},
      {"engine.busy_s", e.busy_seconds, "s"},
      {"engine.util", Ratio(e.busy_seconds, sum.window_s), "frac"},
      {"engine.tokens_per_step",
       Ratio(static_cast<double>(e.prefill_tokens + e.decode_tokens), static_cast<double>(e.steps)),
       "tokens"},
      {"engine.prefill_tokens", static_cast<double>(e.prefill_tokens), "tokens"},
      {"engine.decode_tokens", static_cast<double>(e.decode_tokens), "tokens"},
      {"engine.peak_queue_depth", static_cast<double>(e.peak_queue_depth), "count"},
      {"engine.peak_queue_age_s", e.peak_queue_age_s, "s"},
      {"kv.peak_frac", Ratio(e.peak_kv_bytes, pool_bytes), "frac"},
      {"kv.prefix_hits", static_cast<double>(e.prefix_hits), "count"},
      {"kv.retained_hits", static_cast<double>(e.retained_prefix_hits), "count"},
      {"kv.retained_evictions", static_cast<double>(e.retained_evictions), "count"},
      {"kv.retained_expirations", static_cast<double>(e.retained_expirations), "count"},
      {"kv.prefill_saved_frac",
       Ratio(static_cast<double>(e.prefill_tokens_saved),
             static_cast<double>(e.prefill_tokens + e.prefill_tokens_saved)),
       "frac"},
      {"sim.residual_s",
       serve_work_s - retrieve_s - embed_paid_s - tokenize_s - choose_s, "s"},
      {"trace.wall_qps", wall_qps_traced, "queries/s"},
      {"trace.overhead_frac", Ratio(wall_qps_untraced - wall_qps_traced, wall_qps_untraced),
       "frac"},
  };
  return out;
}

}  // namespace perfbench
