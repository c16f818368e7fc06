// Sustained ingest + query load on the live-mutation serving index (ISSUE 7).
//
// Streams interleaved insert/delete batches into a mutable IVF index while
// measuring, per phase: query QPS, recall@10 against exact ground truth over
// the CURRENT live set, and the index's segment-lifecycle gauges (seals,
// compactions, retrains, tombstones). A mutable FLAT twin receives the exact
// same op stream; by the mutation-parity contract its results are
// bit-identical to a from-scratch flat build over the live set, so its
// recall@10 must be exactly 1.0 every phase — a built-in self-check that the
// ground truth (and the mutation machinery) is sound.
//
// The final rows compare the mutable index, after the whole stream, against a
// STATIC IvfL2Index freshly built from the final live set with identical
// options: the acceptance claim is recall@10 within 2% (and equal when the
// mutable base has just retrained, since the rebuild is bit-identical).
//
// Output: console table + BENCH_ingest.json (schema in docs/BENCH.md),
// gated by check_bench_regression against bench/baselines/.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/vectordb/kernels.h"
#include "src/vectordb/mutable_index.h"
#include "src/vectordb/recall.h"
#include "src/vectordb/vectordb.h"
#include "tests/fixtures/clustered_corpus.h"

using namespace metis;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Op {
  bool insert = false;
  ChunkId id = -1;
  Embedding v;  // Insert only.
};

// Exact ground truth for the twin's current live set (and, by parity, the
// IVF index's — both consumed the same op stream).
FlatL2Index LiveTruth(const MutableIndex& twin, size_t dim) {
  FlatL2Index truth(dim);
  std::shared_ptr<const MutableEpoch> epoch = twin.PinEpoch();
  twin.ForEachLiveRow(*epoch, [&](ChunkId id, const float* row) {
    truth.Add(id, Embedding(row, row + dim));
  });
  return truth;
}

double MeasureQps(const VectorIndex& index, const std::vector<Embedding>& queries, size_t k,
                  int repeats) {
  size_t total = 0;
  auto start = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    for (const Embedding& q : queries) {
      total += index.Search(q, k, RetrievalQuality{}).size();
    }
  }
  double elapsed = SecondsSince(start);
  if (total == 0) {
    std::printf("unexpected empty results\n");
  }
  return static_cast<double>(queries.size() * repeats) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  size_t dim = 48;
  size_t clusters = 16;
  size_t per_cluster = 250;
  int phases = 6;
  int ops_per_phase = 400;
  double insert_fraction = 0.75;
  const size_t kTopK = 10;
  const int kQpsRepeats = 3;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--per_cluster=", 14) == 0) {
      per_cluster = static_cast<size_t>(std::atol(argv[a] + 14));
    } else if (std::strncmp(argv[a], "--ops_per_phase=", 16) == 0) {
      ops_per_phase = std::atoi(argv[a] + 16);
    } else if (std::strncmp(argv[a], "--phases=", 9) == 0) {
      phases = std::atoi(argv[a] + 9);
    }
  }
  size_t n = clusters * per_cluster;
  std::printf("bench_fig_ingest: n=%zu (%zu x %zu), dim=%zu, %d phases x %d ops "
              "(%.0f%% insert), kernel=%s\n",
              n, clusters, per_cluster, dim, phases, ops_per_phase, insert_fraction * 100,
              KernelTargetName(ActiveKernelTarget()));
  ClusteredCorpus corpus = MakeClusteredCorpus(dim, clusters, per_cluster,
                                               /*num_easy=*/128, /*num_hard=*/32, 0xB7EC);
  std::vector<Embedding> queries = corpus.AllQueries();

  RetrievalIndexOptions ivf_opt;
  ivf_opt.backend = RetrievalIndexOptions::Backend::kIvf;
  ivf_opt.nlist = clusters;
  ivf_opt.nprobe = 4;
  ivf_opt.train_seed = 0x1F5EED;
  ivf_opt.mutable_index = true;
  ivf_opt.mutation.memtable_rows = 256;
  ivf_opt.mutation.compact_segments = 4;
  // Low enough that the default stream (6 x 400 ops) crosses it: the bench
  // exercises a mid-stream base retrain, not just seal/compact.
  ivf_opt.mutation.retrain_delta_fraction = 0.25;
  RetrievalIndexOptions flat_opt;
  flat_opt.backend = RetrievalIndexOptions::Backend::kFlat;
  flat_opt.mutable_index = true;
  flat_opt.mutation.memtable_rows = 256;
  flat_opt.mutation.compact_segments = 4;

  MutableIndex ivf(dim, ivf_opt);
  MutableIndex twin(dim, flat_opt);
  for (size_t i = 0; i < corpus.points.size(); ++i) {
    ivf.Add(static_cast<ChunkId>(i), corpus.points[i]);
    twin.Add(static_cast<ChunkId>(i), corpus.points[i]);
  }
  ThreadPool pool(ThreadPool::DefaultThreads());
  {
    auto t0 = Clock::now();
    ivf.Finalize(&pool);
    twin.Finalize(&pool);
    std::printf("finalize (IVF train): %.2f s\n", SecondsSince(t0));
  }

  Rng op_rng(0xFEED5);
  ChunkId next_id = static_cast<ChunkId>(n);
  std::vector<ChunkId> live;
  live.reserve(n * 2);
  for (ChunkId id = 0; id < static_cast<ChunkId>(n); ++id) {
    live.push_back(id);
  }

  Table table("bench_fig_ingest: per-phase recall@10 / QPS under mixed ingest+query load");
  table.SetHeader({"phase", "ingest_ops_s", "qps", "recall@10", "twin_recall", "live", "segs",
                   "tombs", "seals", "compact", "retrain"});
  std::vector<BenchJsonRecord> records;
  double last_recall = 0;

  for (int phase = 0; phase < phases; ++phase) {
    // One phase's deterministic op batch, applied to the IVF index (timed)
    // and replayed onto the flat twin (untimed; it only defines truth).
    std::vector<Op> ops;
    ops.reserve(ops_per_phase);
    for (int i = 0; i < ops_per_phase; ++i) {
      if (op_rng.Bernoulli(insert_fraction) || live.empty()) {
        Op op;
        op.insert = true;
        op.id = next_id++;
        op.v = Jitter(op_rng, corpus.centers[op_rng.Index(clusters)], 0.35);
        live.push_back(op.id);
        ops.push_back(std::move(op));
      } else {
        size_t pick = op_rng.Index(live.size());
        Op op;
        op.id = live[pick];
        live[pick] = live.back();
        live.pop_back();
        ops.push_back(std::move(op));
      }
    }
    auto t0 = Clock::now();
    for (const Op& op : ops) {
      if (op.insert) {
        ivf.Insert(op.id, op.v);
      } else {
        ivf.Delete(op.id);
      }
    }
    double ingest_ops_s = static_cast<double>(ops.size()) / SecondsSince(t0);
    for (const Op& op : ops) {
      if (op.insert) {
        twin.Insert(op.id, op.v);
      } else {
        twin.Delete(op.id);
      }
    }

    FlatL2Index truth = LiveTruth(twin, dim);
    RecallEval eval(truth, queries, kTopK, &pool);
    double twin_recall = eval.Evaluate(twin, &pool);  // Must be exactly 1.0.
    double recall = eval.Evaluate(ivf, &pool);
    double qps = MeasureQps(ivf, queries, kTopK, kQpsRepeats);
    MutableIndexStats s = ivf.stats();
    last_recall = recall;

    table.AddRow({StrFormat("%d", phase), Table::Num(ingest_ops_s, 0), Table::Num(qps, 0),
                  Table::Num(recall, 4), Table::Num(twin_recall, 4),
                  StrFormat("%zu", s.live_rows), StrFormat("%zu", s.open_segments),
                  StrFormat("%zu", s.tombstones), StrFormat("%llu", (unsigned long long)s.seals),
                  StrFormat("%llu", (unsigned long long)s.compactions),
                  StrFormat("%llu", (unsigned long long)s.retrains)});
    BenchJsonRecord rec;
    rec.name = StrFormat("phase%d", phase);
    rec.tags = {{"impl", "mutable_ivf"}};
    rec.metrics = {{"recall_at_10", recall},
                   {"twin_recall_at_10", twin_recall},
                   {"qps", qps},
                   {"ingest_ops_per_s", ingest_ops_s},
                   {"live_rows", static_cast<double>(s.live_rows)},
                   {"segments", static_cast<double>(s.open_segments)},
                   {"tombstones", static_cast<double>(s.tombstones)},
                   {"seals", static_cast<double>(s.seals)},
                   {"compactions", static_cast<double>(s.compactions)},
                   {"retrains", static_cast<double>(s.retrains)}};
    records.push_back(std::move(rec));
    if (twin_recall != 1.0) {
      std::printf("PARITY VIOLATION: flat twin recall %.6f != 1.0 in phase %d\n", twin_recall,
                  phase);
      table.Print();
      return 1;
    }
  }

  // --- Final comparison: fresh static build over the final live set ---
  FlatL2Index truth = LiveTruth(twin, dim);
  RecallEval eval(truth, queries, kTopK, &pool);
  IvfL2Index static_ivf(dim, ivf_opt.nlist, ivf_opt.nprobe, ivf_opt.train_seed);
  {
    std::shared_ptr<const MutableEpoch> epoch = ivf.PinEpoch();
    ivf.ForEachLiveRow(*epoch, [&](ChunkId id, const float* row) {
      static_ivf.Add(id, Embedding(row, row + dim));
    });
  }
  static_ivf.Train(&pool);
  double static_recall = eval.Evaluate(static_ivf, &pool);
  double static_qps = MeasureQps(static_ivf, queries, kTopK, kQpsRepeats);
  double mutable_recall = eval.Evaluate(ivf, &pool);
  double mutable_qps = MeasureQps(ivf, queries, kTopK, kQpsRepeats);
  table.AddRow({"static_final", "-", Table::Num(static_qps, 0), Table::Num(static_recall, 4),
                "-", StrFormat("%zu", static_ivf.size()), "-", "-", "-", "-", "-"});
  table.Print();

  BenchJsonRecord sr;
  sr.name = "static_final";
  sr.tags = {{"impl", "static_ivf"}};
  sr.metrics = {{"recall_at_10", static_recall}, {"qps", static_qps}};
  records.push_back(std::move(sr));
  BenchJsonRecord mr;
  mr.name = "mutable_final";
  mr.tags = {{"impl", "mutable_ivf"}};
  mr.metrics = {{"recall_at_10", mutable_recall}, {"qps", mutable_qps}};
  records.push_back(std::move(mr));

  BenchJsonRecord summary;
  summary.name = "summary";
  summary.metrics = {{"n", static_cast<double>(n)},
                     {"dim", static_cast<double>(dim)},
                     {"k", static_cast<double>(kTopK)},
                     {"num_queries", static_cast<double>(queries.size())},
                     {"phases", static_cast<double>(phases)},
                     {"ops_per_phase", static_cast<double>(ops_per_phase)},
                     {"insert_fraction", insert_fraction},
                     {"host_cpus", static_cast<double>(std::thread::hardware_concurrency())}};
  records.push_back(std::move(summary));

  bool recall_close = mutable_recall >= static_recall - 0.02;
  PrintShapeCheck(
      "live-mutation index holds recall@10 within 2% of a fresh static build",
      StrFormat("mutable=%.4f static=%.4f (last mid-stream phase %.4f)", mutable_recall,
                static_recall, last_recall),
      recall_close);

  WriteBenchJson("BENCH_ingest.json", "ingest", records,
                 "QPS values are machine-dependent; recall values are deterministic.");
  std::printf("wrote BENCH_ingest.json (%zu records)\n", records.size());
  return recall_close ? 0 : 1;
}
