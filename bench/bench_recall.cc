// Recall/latency curves for the ANN recall subsystem (ISSUE 2; ROADMAP
// "expose ANN recall knobs ... and measure recall/latency curves").
//
// Sweeps the IVF index over nlist x nprobe x probe-mode (fixed vs per-query
// adaptive) on a clustered synthetic corpus with a controlled mix of easy
// (in-cluster) and hard (multi-cluster-midpoint) queries, and reports
// recall@10 against FlatL2Index ground truth plus QPS and per-query latency
// percentiles. The flat index itself is the first row — by construction its
// recall@10 is exactly 1.0, which doubles as a self-check of the RecallEval
// plumbing.
//
// Output: console tables + BENCH_recall.json (schema in docs/BENCH.md).

#include <algorithm>
#include <chrono>
#include <cmath>
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
#include "src/vectordb/recall.h"
#include "src/vectordb/vectordb.h"
#include "tests/fixtures/clustered_corpus.h"

using namespace metis;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Measurement {
  double recall = 0;
  double mean_probes = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

// Recall via RecallEval's untimed per-query reads, then QPS and latency
// percentiles from a second, timed pass of the same Search calls.
Measurement Measure(const VectorIndex& index, const RecallEval& eval,
                    const RetrievalQuality& quality) {
  Measurement m;
  const auto* ivf = dynamic_cast<const IvfL2Index*>(&index);
  if (ivf != nullptr) {
    ivf->ResetProbeStats();
  }
  m.recall = eval.Evaluate(index, nullptr, quality);
  if (ivf != nullptr) {
    m.mean_probes = ivf->mean_probes();
  }
  Samples lat_ms;
  size_t total = 0;
  auto start = Clock::now();
  for (const Embedding& q : eval.queries()) {
    auto t0 = Clock::now();
    auto hits = index.Search(q, eval.k(), quality);
    lat_ms.Add(SecondsSince(t0) * 1e3);
    total += hits.size();
  }
  double elapsed = SecondsSince(start);
  if (total == 0) {
    std::printf("unexpected empty results\n");
  }
  m.qps = static_cast<double>(eval.queries().size()) / elapsed;
  m.p50_ms = lat_ms.median();
  m.p99_ms = lat_ms.p99();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  size_t dim = 64;
  size_t clusters = 32;
  size_t per_cluster = 400;
  size_t num_easy = 192;
  size_t num_hard = 64;
  const size_t kTopK = 10;
  const size_t kMixWay = 5;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--per_cluster=", 14) == 0) {
      per_cluster = static_cast<size_t>(std::atol(argv[a] + 14));
    } else if (std::strncmp(argv[a], "--clusters=", 11) == 0) {
      clusters = static_cast<size_t>(std::atol(argv[a] + 11));
    }
  }
  clusters = std::min(std::max(clusters, kMixWay + 1), dim);  // Generator constraints.
  size_t n = clusters * per_cluster;
  std::printf("Building clustered corpus: n=%zu (%zu x %zu), dim=%zu, %zu easy + %zu hard "
              "queries, kernel=%s ...\n",
              n, clusters, per_cluster, dim, num_easy, num_hard,
              KernelTargetName(ActiveKernelTarget()));
  ClusteredCorpus corpus =
      MakeClusteredCorpus(dim, clusters, per_cluster, num_easy, num_hard, 0xB7EC, kMixWay);

  FlatL2Index flat(dim);
  for (size_t i = 0; i < corpus.points.size(); ++i) {
    flat.Add(static_cast<ChunkId>(i), corpus.points[i]);
  }
  RecallEval eval(flat, corpus.AllQueries(), kTopK);

  std::vector<BenchJsonRecord> records;
  auto record = [&records](const std::string& name, const std::string& impl, size_t nlist,
                           size_t nprobe, bool adaptive, const Measurement& m) {
    BenchJsonRecord rec;
    rec.name = name;
    rec.tags = {{"impl", impl}, {"mode", adaptive ? "adaptive" : "fixed"}};
    rec.metrics = {{"nlist", static_cast<double>(nlist)},
                   {"nprobe", static_cast<double>(nprobe)},
                   {"adaptive", adaptive ? 1.0 : 0.0},
                   {"recall_at_10", m.recall},
                   {"mean_probes", m.mean_probes},
                   {"qps", m.qps},
                   {"p50_ms", m.p50_ms},
                   {"p99_ms", m.p99_ms}};
    records.push_back(std::move(rec));
  };

  // --- Flat ground-truth row (recall is 1.0 by construction) ---
  Measurement flat_m = Measure(flat, eval, RetrievalQuality{});
  record("flat_exact", "flat", 0, 0, false, flat_m);
  std::printf("flat exact: recall@10=%.4f qps=%.0f p50=%.3f ms\n", flat_m.recall, flat_m.qps,
              flat_m.p50_ms);

  // --- IVF sweep: nlist x nprobe x {fixed, adaptive} ---
  Table table("bench_recall: recall@10 / mean probes / QPS");
  table.SetHeader({"config", "recall@10", "mean_probes", "qps", "p50_ms", "p99_ms"});

  // Highlighted adaptive-vs-fixed pair for the verdict; only valid once both
  // configurations actually ran (a --clusters override can skip them).
  double best_adaptive_recall = 0;
  double best_adaptive_probes = 0;
  double fixed_recall_at_ceil = 0;
  bool have_adaptive_highlight = false;
  bool have_fixed_highlight = false;
  for (size_t nlist : {clusters / 2, clusters}) {
    IvfL2Index ivf(dim, nlist, 1, 0x1F5EED);
    for (size_t i = 0; i < corpus.points.size(); ++i) {
      ivf.Add(static_cast<ChunkId>(i), corpus.points[i]);
    }
    {
      ThreadPool pool(ThreadPool::DefaultThreads());
      auto t0 = Clock::now();
      ivf.Train(&pool);
      std::printf("IVF nlist=%zu train: %.2f s\n", nlist, SecondsSince(t0));
    }
    AdaptiveProbePolicy policy;
    policy.enabled = true;
    policy.min_probes = 1;
    policy.distance_ratio = 1.3;
    for (size_t nprobe : {size_t{1}, size_t{2}, size_t{4}, size_t{8}, size_t{16}}) {
      if (nprobe > nlist) {
        continue;
      }
      RetrievalQuality fixed;
      fixed.mode = RetrievalQuality::ProbeMode::kFixed;
      fixed.nprobe = nprobe;
      Measurement fm = Measure(ivf, eval, fixed);
      record(StrFormat("ivf_nlist%zu_nprobe%zu_fixed", nlist, nprobe), "ivf", nlist, nprobe,
             false, fm);
      table.AddRow({StrFormat("nlist=%zu nprobe=%zu fixed", nlist, nprobe),
                    Table::Num(fm.recall, 4), Table::Num(fm.mean_probes, 2),
                    Table::Num(fm.qps, 0), Table::Num(fm.p50_ms, 3), Table::Num(fm.p99_ms, 3)});

      policy.max_probes = nprobe;
      ivf.set_adaptive_probe(policy);
      RetrievalQuality adaptive;
      adaptive.mode = RetrievalQuality::ProbeMode::kAdaptive;
      Measurement am = Measure(ivf, eval, adaptive);
      record(StrFormat("ivf_nlist%zu_nprobe%zu_adaptive", nlist, nprobe), "ivf", nlist, nprobe,
             true, am);
      table.AddRow({StrFormat("nlist=%zu budget=%zu adaptive", nlist, nprobe),
                    Table::Num(am.recall, 4), Table::Num(am.mean_probes, 2),
                    Table::Num(am.qps, 0), Table::Num(am.p50_ms, 3), Table::Num(am.p99_ms, 3)});

      if (nlist == clusters && nprobe == 8) {
        best_adaptive_recall = am.recall;
        best_adaptive_probes = am.mean_probes;
        have_adaptive_highlight = true;
      }
      if (nlist == clusters && nprobe == 4) {
        fixed_recall_at_ceil = fm.recall;
        have_fixed_highlight = true;
      }
    }
  }
  table.Print();

  // --- Verdicts ---
  PrintShapeCheck("flat ground-truth row reports recall@10 == 1.0",
                  StrFormat("recall@10 = %.6f", flat_m.recall), flat_m.recall == 1.0);
  if (have_adaptive_highlight && have_fixed_highlight) {
    PrintShapeCheck(
        "adaptive probing (budget 8) beats fixed nprobe=4 recall at fewer mean probes",
        StrFormat("adaptive %.4f @ %.2f probes vs fixed %.4f @ 4", best_adaptive_recall,
                  best_adaptive_probes, fixed_recall_at_ceil),
        best_adaptive_recall >= fixed_recall_at_ceil && best_adaptive_probes <= 4.0);
  } else {
    std::printf("  [SKIP] adaptive-vs-fixed verdict: highlighted configs not in this sweep "
                "(clusters=%zu)\n", clusters);
  }

  BenchJsonRecord summary;
  summary.name = "summary";
  summary.tags = {{"impl", "summary"},
                  {"kernel", KernelTargetName(ActiveKernelTarget())}};
  summary.metrics = {{"n", static_cast<double>(n)},
                     {"dim", static_cast<double>(dim)},
                     {"k", static_cast<double>(kTopK)},
                     {"num_queries", static_cast<double>(eval.queries().size())},
                     {"flat_recall_at_10", flat_m.recall},
                     {"host_cpus",
                      static_cast<double>(std::max(1u, std::thread::hardware_concurrency()))}};
  records.push_back(std::move(summary));
  WriteBenchJson("BENCH_recall.json", "recall", records,
                 StrFormat("recall values are host-independent (bit-identical kernels); "
                           "QPS measured on a %u-cpu host",
                           std::max(1u, std::thread::hardware_concurrency())));
  std::printf("wrote BENCH_recall.json (%zu records)\n", records.size());
  return flat_m.recall == 1.0 ? 0 : 1;
}
