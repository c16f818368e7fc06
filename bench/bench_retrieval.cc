// Retrieval-substrate microbenchmark: flat vs. IVF, seed-scalar vs. blocked
// kernels, the query set split across 1/2/4/8 threads, and the certified
// scan (the same indexes once their SQ mirrors are built, for dense random
// queries and for sparse text-embedded ones). Every read is one Search per
// query, the call the serve makes. Prints console tables and emits a
// machine-readable BENCH_retrieval.json (QPS + p50/p99 per-query latency
// per configuration) so future PRs can track the perf trajectory.
//
// On a 1-CPU host the multi-thread rows are skipped (announced once): they
// would only measure worker-pool overhead, and their QPS would poison the
// checked-in baseline. The summary row records `host_cpus` so baselines are
// comparable across machines.
//
// The "seed scalar" baseline is the frozen pre-rebuild FlatL2Index::Search
// from tests/fixtures/seed_reference.h (shared with the parity tests, so the
// bench speedup and the test parity measure the same baseline).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/embed/embedding.h"
#include "src/vectordb/kernels.h"
#include "src/vectordb/vectordb.h"
#include "src/workload/dataset.h"
#include "tests/fixtures/seed_reference.h"

using namespace metis;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Measurement {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

// Runs every query through one Search, the queries split across `pool`
// (inline when null), and times each call. QPS is the query count over the
// wall time of the whole set.
Measurement Measure(const VectorIndex& index, const std::vector<Embedding>& queries, size_t k,
                    ThreadPool* pool) {
  std::vector<double> latencies_ms(queries.size());
  auto start = Clock::now();
  ParallelFor(pool, queries.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      auto t0 = Clock::now();
      index.Search(queries[i], k, RetrievalQuality{});
      latencies_ms[i] = SecondsSince(t0) * 1e3;
    }
  });
  double total_s = SecondsSince(start);
  Samples latencies;
  latencies.AddAll(latencies_ms);
  Measurement m;
  m.qps = static_cast<double>(queries.size()) / total_s;
  m.p50_ms = latencies.median();
  m.p99_ms = latencies.p99();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = 50000;
  size_t dim = 256;
  size_t num_queries = 64;
  const size_t kTopK = 10;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--n=", 4) == 0) {
      n = static_cast<size_t>(std::atol(argv[a] + 4));
    } else if (std::strncmp(argv[a], "--queries=", 10) == 0) {
      num_queries = static_cast<size_t>(std::atol(argv[a] + 10));
    }
  }

  std::printf("Building corpus: n=%zu dim=%zu ...\n", n, dim);
  Rng rng(0xBE7C4);
  SeedFlatIndex seed(dim);
  FlatL2Index flat(dim);
  IvfL2Index ivf(dim, 64, 8, 17);
  for (size_t i = 0; i < n; ++i) {
    Embedding v = RandomUnitVector(rng, dim);
    seed.Add(static_cast<ChunkId>(i), v);
    flat.Add(static_cast<ChunkId>(i), v);
    ivf.Add(static_cast<ChunkId>(i), v);
  }
  std::vector<Embedding> queries;
  for (size_t q = 0; q < num_queries; ++q) {
    queries.push_back(RandomUnitVector(rng, dim));
  }
  // Text-embedded queries: a generated dataset's query texts through the
  // catalog embedder's recipe at the bench's dim. They weight a small share
  // of the dimensions, as every perfbench query does, where the random
  // queries above weight all of them.
  std::vector<Embedding> text_queries;
  {
    DatasetGenerator gen(GetDatasetProfile("squad"), 11);
    std::unique_ptr<Dataset> ds =
        gen.Generate(static_cast<int>(num_queries), "cohere-embed-v3-sim");
    EmbeddingModelSpec spec = GetEmbeddingModel("cohere-embed-v3-sim");
    spec.dim = dim;
    EmbeddingModel model(spec);
    size_t nonzero = 0;
    for (const RagQuery& q : ds->queries()) {
      text_queries.push_back(model.Embed(q.text));
      nonzero += static_cast<size_t>(std::count_if(text_queries.back().begin(),
                                                   text_queries.back().end(),
                                                   [](float x) { return x != 0.0f; }));
    }
    std::printf("text queries: %zu, %.1f of %zu dims nonzero on average\n", text_queries.size(),
                static_cast<double>(nonzero) / static_cast<double>(text_queries.size()), dim);
  }

  std::vector<BenchJsonRecord> records;
  // Record names keep their "_b1" suffix (one query per call), so each
  // baseline row keeps its history.
  auto record = [&records](const std::string& name, const std::string& impl, size_t threads,
                           const Measurement& m) {
    BenchJsonRecord rec;
    rec.name = name;
    rec.tags = {{"impl", impl}};
    rec.metrics = {{"threads", static_cast<double>(threads)},
                   {"qps", m.qps},
                   {"p50_ms", m.p50_ms},
                   {"p99_ms", m.p99_ms}};
    records.push_back(std::move(rec));
  };
  auto table_row = [](const std::string& label, const Measurement& m) {
    return std::vector<std::string>{label, Table::Num(m.qps, 0), Table::Num(m.p50_ms, 3),
                                    Table::Num(m.p99_ms, 3)};
  };

  // --- Seed scalar baseline (single thread) ---
  size_t seed_queries = std::min<size_t>(num_queries, 24);
  {  // Warmup.
    seed.Search(queries[0], kTopK);
  }
  Samples seed_lat_ms;
  auto seed_start = Clock::now();
  for (size_t q = 0; q < seed_queries; ++q) {
    auto t0 = Clock::now();
    auto hits = seed.Search(queries[q], kTopK);
    seed_lat_ms.Add(SecondsSince(t0) * 1e3);
    if (hits.empty()) {
      std::printf("unexpected empty result\n");
      return 1;
    }
  }
  Measurement seed_m;
  seed_m.qps = static_cast<double>(seed_queries) / SecondsSince(seed_start);
  seed_m.p50_ms = seed_lat_ms.median();
  seed_m.p99_ms = seed_lat_ms.p99();
  record("flat_seed_scalar_t1_b1", "flat_seed_scalar", 1, seed_m);

  // --- Kernel dispatch tiers (single thread) ---
  // One row per CPU-supported tier, so the perf trajectory separates "wider
  // SIMD" from the substrate-level wins. Rankings are bit-identical across
  // tiers (see kernels.h); only throughput may differ.
  {
    Table tier_table("bench_retrieval: flat QPS per kernel dispatch tier (t=1)");
    tier_table.SetHeader({"tier", "qps", "p50_ms", "p99_ms"});
    for (KernelTarget target : {KernelTarget::kScalar, KernelTarget::kAvx2}) {
      if (!KernelTargetSupported(target)) {
        std::printf("  [SKIP] kernel tier %s: not supported by this CPU\n",
                    KernelTargetName(target));
        continue;
      }
      SetKernelTarget(target);
      // Warmup under this tier.
      flat.Search(queries[0], kTopK, RetrievalQuality{});
      Measurement m = Measure(flat, queries, kTopK, nullptr);
      record(StrFormat("flat_blocked_%s_t1_b1", KernelTargetName(target)),
             StrFormat("flat_blocked_%s", KernelTargetName(target)), 1, m);
      tier_table.AddRow(table_row(KernelTargetName(target), m));
    }
    ResetKernelTarget();
    tier_table.Print();
  }

  // --- Blocked flat + IVF, the query set split across threads ---
  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());
  std::vector<size_t> thread_grid = {1, 2, 4, 8};
  if (host_cpus == 1) {
    // Announced once, not per row: with one hardware thread every t>1 row
    // measures pool overhead, not scaling.
    std::printf("  [SKIP] multi-thread rows (t=2/4/8): host exposes 1 hardware thread\n");
    thread_grid = {1};
  }
  const std::vector<std::string> header = {"threads", "qps", "p50_ms", "p99_ms"};
  Table flat_table("bench_retrieval: blocked flat QPS (n=50k, dim=256, k=10)");
  flat_table.SetHeader(header);

  double flat_t1_qps = 0;
  double flat_t4_qps = 0;
  Measure(flat, queries, kTopK, nullptr);  // Warmup.
  for (size_t threads : thread_grid) {
    ThreadPool pool(threads);
    Measurement m = Measure(flat, queries, kTopK, threads > 1 ? &pool : nullptr);
    record(StrFormat("flat_blocked_t%zu_b1", threads), "flat_blocked", threads, m);
    flat_table.AddRow(table_row(StrFormat("t=%zu", threads), m));
    if (threads == 1) {
      flat_t1_qps = m.qps;
    }
    if (threads == 4) {
      flat_t4_qps = m.qps;
    }
  }
  flat_table.Print();
  // The exact scan's cost does not depend on the query's sparsity; this row
  // shows it, as the base for the text-query certified ratio below.
  Measurement flat_text_m = Measure(flat, text_queries, kTopK, nullptr);
  record("flat_blocked_text_t1_b1", "flat_blocked_text", 1, flat_text_m);

  Table ivf_table("bench_retrieval: IVF (nlist=64, nprobe=8) QPS");
  ivf_table.SetHeader(header);
  {
    ThreadPool train_pool(ThreadPool::DefaultThreads());
    auto t0 = Clock::now();
    ivf.Train(&train_pool);
    double train_s = SecondsSince(t0);
    BenchJsonRecord rec;
    rec.name = "ivf_train";
    rec.tags = {{"impl", "ivf_train"}};
    rec.metrics = {{"threads", static_cast<double>(train_pool.num_threads())},
                   {"seconds", train_s}};
    records.push_back(std::move(rec));
    std::printf("IVF train (%zu threads): %.2f s\n", train_pool.num_threads(), train_s);
  }
  for (size_t threads : thread_grid) {
    ThreadPool pool(threads);
    Measurement m = Measure(ivf, queries, kTopK, threads > 1 ? &pool : nullptr);
    record(StrFormat("ivf_blocked_t%zu_b1", threads), "ivf_blocked", threads, m);
    ivf_table.AddRow(table_row(StrFormat("t=%zu", threads), m));
  }
  ivf_table.Print();

  // --- Certified scan: the same indexes with their SQ mirrors built ---
  // Every row above ran with no mirror, i.e. the plain exact loop. Here each
  // index builds its mirror the way VectorDatabase::FinalizeIndex does
  // (encoded across a default-size pool), after which every fp32 read is the
  // certified two-pass scan — results bit-identical, so only speed moves.
  // Pass 1 reads only the dimension pairs a query weights, so each backend
  // runs the dense random queries and the sparse text-embedded ones.
  double flat_certified_t1_qps = 0;
  double flat_certified_text_t1_qps = 0;
  {
    Table cert_table("bench_retrieval: certified scan QPS (SQ mirror built)");
    cert_table.SetHeader({"index", "qps", "p50_ms", "p99_ms"});
    ThreadPool build_pool(ThreadPool::DefaultThreads());
    for (const auto& [backend, index] : std::vector<std::pair<std::string, VectorIndex*>>{
             {"flat", &flat}, {"ivf", &ivf}}) {
      auto t0 = Clock::now();
      index->BuildQuantizedMirrors(&build_pool);
      double build_s = SecondsSince(t0);
      BenchJsonRecord rec;
      rec.name = StrFormat("%s_mirror_build", backend.c_str());
      rec.tags = {{"impl", "mirror_build"}};
      rec.metrics = {{"threads", static_cast<double>(build_pool.num_threads())},
                     {"seconds", build_s}};
      records.push_back(std::move(rec));
      std::printf("%s SQ mirror build (%zu threads): %.3f s\n", backend.c_str(),
                  build_pool.num_threads(), build_s);
      Measure(*index, queries, kTopK, nullptr);  // Warmup.
      for (const auto& [kind, kind_queries] :
           std::vector<std::pair<std::string, const std::vector<Embedding>*>>{
               {"", &queries}, {"_text", &text_queries}}) {
        for (size_t threads : thread_grid) {
          if (threads != 1 && threads != 4) {
            continue;
          }
          ThreadPool pool(threads);
          Measurement m = Measure(*index, *kind_queries, kTopK, threads > 1 ? &pool : nullptr);
          std::string impl = StrFormat("%s_certified%s", backend.c_str(), kind.c_str());
          record(StrFormat("%s_t%zu_b1", impl.c_str(), threads), impl, threads, m);
          cert_table.AddRow(
              table_row(StrFormat("%s%s t=%zu", backend.c_str(), kind.c_str(), threads), m));
          if (backend == "flat" && threads == 1) {
            (kind.empty() ? flat_certified_t1_qps : flat_certified_text_t1_qps) = m.qps;
          }
        }
      }
    }
    cert_table.Print();
  }

  // --- Verdicts ---
  double speedup = seed_m.qps > 0 ? flat_t1_qps / seed_m.qps : 0;
  std::printf("\nseed scalar: %.0f qps (p50 %.2f ms) | blocked t1: %.0f qps (speedup %.1fx)\n",
              seed_m.qps, seed_m.p50_ms, flat_t1_qps, speedup);
  std::printf("certified flat t1: %.0f qps (%.2fx the mirror-free scan)\n",
              flat_certified_t1_qps, flat_certified_t1_qps / std::max(1.0, flat_t1_qps));
  std::printf("certified flat t1, text queries: %.0f qps (%.2fx the mirror-free scan)\n",
              flat_certified_text_t1_qps,
              flat_certified_text_t1_qps / std::max(1.0, flat_text_m.qps));
  PrintShapeCheck(StrFormat("blocked flat search >= 5x seed scalar at dim=%zu, n=%zu", dim, n),
                  StrFormat("%.1fx single-thread speedup", speedup), speedup >= 5.0);
  if (ThreadPool::DefaultThreads() >= 4) {
    PrintShapeCheck("near-linear query-parallel scaling to 4 threads",
                    StrFormat("the same %zu queries on t4 %.0f qps vs t1 %.0f qps (%.2fx)",
                              queries.size(), flat_t4_qps, flat_t1_qps,
                              flat_t4_qps / std::max(1.0, flat_t1_qps)),
                    flat_t4_qps >= 2.5 * flat_t1_qps);
  } else {
    std::printf("  [SKIP] thread-scaling verdict: only %zu hardware thread(s) available\n",
                ThreadPool::DefaultThreads());
  }

  BenchJsonRecord summary;
  summary.name = "summary";
  summary.tags = {{"impl", "summary"}};
  summary.tags.emplace_back("kernel", KernelTargetName(ActiveKernelTarget()));
  summary.metrics = {{"n", static_cast<double>(n)},
                     {"dim", static_cast<double>(dim)},
                     {"k", static_cast<double>(kTopK)},
                     {"single_thread_speedup", speedup},
                     {"hardware_threads", static_cast<double>(ThreadPool::DefaultThreads())},
                     {"host_cpus", static_cast<double>(host_cpus)}};
  records.push_back(std::move(summary));
  WriteBenchJson("BENCH_retrieval.json", "retrieval", records,
                 StrFormat("measured on a %u-cpu host, kernel tier %s", host_cpus,
                           KernelTargetName(ActiveKernelTarget())));
  std::printf("wrote BENCH_retrieval.json (%zu records)\n", records.size());
  return 0;
}
