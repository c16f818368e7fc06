// Hybrid-retrieval bench: profile-routed ensemble fusion vs the fixed
// single-backend arms (ISSUE 10; ROADMAP "hybrid retrieval as a schedulable
// knob").
//
// Runs the four "<dataset>_hybrid" evaluation workloads — task types rotate
// factual / semantic / temporal / comparative by query id, each constructed
// so a different backend mix wins (dataset.h DatasetProfile::hybrid_eval) —
// through three retrieval arms over the same corpus and index:
//
//   dense    the incumbent dense-only stack (hybrid knob off),
//   lexical  BM25 only (hybrid on, dense weight 0),
//   routed   HybridRouter's weight table: the profiler classifies each query's
//            task type from its text, the router picks per-backend weights
//            and the temporal metadata filter, the database fuses by
//            weighted RRF.
//
// Per arm: retrieval-level mean F1 at k = |gold chunk set| (at that k,
// precision = recall = F1 = overlap/|gold|), single-thread QPS over the
// classify+route+retrieve loop, and mean retrieval cost in rows, where cost =
// dense rows scored (all live rows, or the filter-surviving rows on filtered
// scans) + BM25 postings scanned (LexicalIndexStats). The verdict pins the
// tentpole's acceptance claim: on >= 2 of the 4 datasets the routed arm beats
// the BEST fixed single-backend arm on mean F1 at a mean cost no higher than
// the dense-only incumbent's.
//
// Output: console tables + BENCH_hybrid.json (schema in docs/BENCH.md), gated
// against bench/baselines/BENCH_hybrid.baseline.json by the
// check_bench_regression target (mean_f1 2%, qps 20%).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/strings.h"
#include "src/core/hybrid_router.h"
#include "src/text/tokenizer.h"
#include "src/vectordb/lexical_index.h"
#include "src/vectordb/vectordb.h"
#include "src/workload/dataset.h"

using namespace metis;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr int kNumQueries = 120;
constexpr uint64_t kSeed = 42;
const char* kEmbedModel = "cohere-embed-v3-sim";

struct ArmResult {
  double mean_f1 = 0;
  double qps = 0;
  double mean_cost_rows = 0;      // dense rows scored + lexical postings, per query.
  double mean_dense_rows = 0;
  double mean_lex_postings = 0;
  double f1_by_type[kNumQueryTaskTypes] = {0, 0, 0, 0};
};

// The quality an arm uses for one query. `routed` consults the router.
RetrievalQuality QualityFor(const std::string& arm, const HybridRouter& router,
                            const RagQuery& query) {
  if (arm == "dense") {
    return {};
  }
  if (arm == "lexical") {
    RetrievalQuality q;
    q.hybrid = true;
    q.dense_weight = 0.0f;
    q.lexical_weight = 1.0f;
    return q;
  }
  QueryProfile profile;
  profile.task_type = ClassifyTaskType(Tokenize(query.text), &profile.time_bucket);
  return router.Route(profile, {});
}

ArmResult MeasureArm(const Dataset& dataset, const std::string& arm,
                     const HybridRouter& router,
                     const std::vector<std::vector<ChunkId>>& gold_sets,
                     const std::vector<size_t>& bucket_rows) {
  const VectorDatabase& db = dataset.db();
  const size_t live_rows = db.num_chunks();
  ArmResult r;
  double type_sum[kNumQueryTaskTypes] = {0, 0, 0, 0};
  size_t type_n[kNumQueryTaskTypes] = {0, 0, 0, 0};

  // Quality pass: F1 and the dense-leg cost (analytic: a flat scan scores
  // every live row; a filtered scan scores only the filter-surviving rows).
  db.ResetHybridStats();
  db.lexical_index()->ResetSearchStats();
  uint64_t postings_before = db.lexical_index()->stats().postings_scanned;
  double dense_rows = 0;
  for (size_t i = 0; i < dataset.queries().size(); ++i) {
    const RagQuery& query = dataset.queries()[i];
    const std::vector<ChunkId>& gold = gold_sets[i];
    if (gold.empty()) {
      continue;
    }
    RetrievalQuality quality = QualityFor(arm, router, query);
    std::vector<SearchHit> hits = db.RetrieveWithDistances(query.text, gold.size(), quality);
    size_t overlap = 0;
    for (const SearchHit& h : hits) {
      overlap += std::binary_search(gold.begin(), gold.end(), h.id) ? 1 : 0;
    }
    double precision = hits.empty() ? 0.0 : static_cast<double>(overlap) / hits.size();
    double recall = static_cast<double>(overlap) / gold.size();
    double f1 = precision + recall > 0 ? 2 * precision * recall / (precision + recall) : 0.0;
    r.mean_f1 += f1;
    int type = static_cast<int>(ClassifyTaskType(Tokenize(query.text)));
    type_sum[type] += f1;
    ++type_n[type];
    bool wants_dense = !quality.hybrid || quality.dense_weight > 0;
    if (wants_dense) {
      dense_rows += quality.filter.time_bucket >= 0
                        ? static_cast<double>(
                              bucket_rows[static_cast<size_t>(quality.filter.time_bucket)])
                        : static_cast<double>(live_rows);
    }
  }
  size_t nq = dataset.queries().size();
  r.mean_f1 /= nq;
  for (int t = 0; t < kNumQueryTaskTypes; ++t) {
    r.f1_by_type[t] = type_n[t] > 0 ? type_sum[t] / type_n[t] : 0.0;
  }
  double postings =
      static_cast<double>(db.lexical_index()->stats().postings_scanned - postings_before);
  r.mean_dense_rows = dense_rows / nq;
  r.mean_lex_postings = postings / nq;
  r.mean_cost_rows = r.mean_dense_rows + r.mean_lex_postings;

  // Timing pass: best of 5 windows of the full classify+route+retrieve loop.
  // The lexical arm answers a query in microseconds, so one 120-query pass is
  // far too short to time reliably — repeat the loop until each timed window
  // covers at least ~250 ms, and keep the fastest window (clips scheduler
  // steal on shared hosts).
  auto run_loop = [&]() {
    for (size_t i = 0; i < dataset.queries().size(); ++i) {
      const RagQuery& query = dataset.queries()[i];
      RetrievalQuality quality = QualityFor(arm, router, query);
      size_t k = std::max<size_t>(1, gold_sets[i].size());
      if (db.RetrieveWithDistances(query.text, k, quality).empty()) {
        std::printf("unexpected empty results\n");
      }
    }
  };
  auto start = Clock::now();
  run_loop();
  double once_s = SecondsSince(start);
  int iters = once_s > 0 ? static_cast<int>(0.25 / once_s) + 1 : 1;
  for (int rep = 0; rep < 5; ++rep) {
    start = Clock::now();
    for (int it = 0; it < iters; ++it) {
      run_loop();
    }
    r.qps = std::max(
        r.qps, static_cast<double>(iters) * static_cast<double>(nq) / SecondsSince(start));
  }
  return r;
}

}  // namespace

int main() {
  const std::vector<std::string> datasets = {"squad_hybrid", "musique_hybrid",
                                             "kg_rag_finsec_hybrid", "qmsum_hybrid"};
  const std::vector<std::string> arms = {"dense", "lexical", "routed"};

  HybridRouterOptions router_options;
  router_options.enabled = true;
  HybridRouter router(router_options);

  std::vector<BenchJsonRecord> records;
  int routed_wins = 0;
  for (const std::string& name : datasets) {
    DatasetGenerator generator(GetDatasetProfile(name), kSeed);
    RetrievalIndexOptions index_options;
    index_options.lexical = true;
    std::unique_ptr<Dataset> dataset =
        generator.Generate(kNumQueries, kEmbedModel, index_options);

    // Gold chunk set per query (sorted unique), and the per-time-bucket live
    // row counts filtered dense scans are charged for.
    std::vector<std::vector<ChunkId>> gold_sets;
    for (const RagQuery& query : dataset->queries()) {
      std::vector<ChunkId> gold;
      for (int32_t fact_id : query.gold_fact_ids) {
        gold.push_back(dataset->fact(fact_id).chunk_id);
      }
      std::sort(gold.begin(), gold.end());
      gold.erase(std::unique(gold.begin(), gold.end()), gold.end());
      gold_sets.push_back(std::move(gold));
    }
    std::vector<size_t> bucket_rows(
        static_cast<size_t>(std::max(1, dataset->profile().num_time_buckets)), 0);
    for (size_t i = 0; i < dataset->db().num_chunks(); ++i) {
      const Chunk& c = dataset->db().chunk(static_cast<ChunkId>(i));
      if (c.time_bucket >= 0 && static_cast<size_t>(c.time_bucket) < bucket_rows.size()) {
        ++bucket_rows[static_cast<size_t>(c.time_bucket)];
      }
    }

    std::printf("\n=== %s (%d queries, %zu chunks) ===\n", name.c_str(), kNumQueries,
                dataset->db().num_chunks());
    std::printf("%-8s %8s %10s %10s %12s %12s  %s\n", "arm", "mean_f1", "qps", "cost_rows",
                "dense_rows", "lex_postings", "f1 fact/sem/temp/comp");
    std::vector<ArmResult> results;
    for (const std::string& arm : arms) {
      ArmResult r = MeasureArm(*dataset, arm, router, gold_sets, bucket_rows);
      std::printf("%-8s %8.4f %10.0f %10.1f %12.1f %12.1f  %.3f/%.3f/%.3f/%.3f\n", arm.c_str(),
                  r.mean_f1, r.qps, r.mean_cost_rows, r.mean_dense_rows, r.mean_lex_postings,
                  r.f1_by_type[0], r.f1_by_type[1], r.f1_by_type[2], r.f1_by_type[3]);
      BenchJsonRecord rec;
      rec.name = name + "/" + arm;
      rec.tags = {{"dataset", name}, {"arm", arm}};
      rec.metrics = {{"mean_f1", r.mean_f1},
                     {"qps", r.qps},
                     {"mean_cost_rows", r.mean_cost_rows},
                     {"mean_dense_rows", r.mean_dense_rows},
                     {"mean_lex_postings", r.mean_lex_postings},
                     {"f1_factual", r.f1_by_type[0]},
                     {"f1_semantic", r.f1_by_type[1]},
                     {"f1_temporal", r.f1_by_type[2]},
                     {"f1_comparative", r.f1_by_type[3]}};
      records.push_back(std::move(rec));
      results.push_back(r);
    }

    const ArmResult& dense = results[0];
    const ArmResult& lexical = results[1];
    const ArmResult& routed = results[2];
    double best_fixed_f1 = std::max(dense.mean_f1, lexical.mean_f1);
    bool wins = routed.mean_f1 > best_fixed_f1 &&
                routed.mean_cost_rows <= dense.mean_cost_rows;
    routed_wins += wins ? 1 : 0;
    PrintShapeCheck(
        "routed F1 beats the best fixed single backend at <= dense-only cost",
        StrFormat("routed %.4f @ %.0f rows vs best fixed %.4f, dense %.0f rows",
                  routed.mean_f1, routed.mean_cost_rows, best_fixed_f1,
                  dense.mean_cost_rows),
        wins);
  }

  bool ok = routed_wins >= 2;
  PrintShapeCheck("profile routing pays on >= 2 of 4 datasets",
                  StrFormat("routed wins on %d of %zu", routed_wins, datasets.size()), ok);

  BenchJsonRecord summary;
  summary.name = "summary";
  summary.tags = {{"arm", "summary"}};
  summary.metrics = {{"num_queries", static_cast<double>(kNumQueries)},
                     {"num_datasets", static_cast<double>(datasets.size())},
                     {"routed_wins", static_cast<double>(routed_wins)}};
  records.push_back(std::move(summary));
  WriteBenchJson("BENCH_hybrid.json", "hybrid", records,
                 "mean_f1 and cost are simulation-deterministic and host-independent; "
                 "qps is machine-dependent");
  std::printf("wrote BENCH_hybrid.json (%zu records)\n", records.size());
  return ok ? 0 : 1;
}
