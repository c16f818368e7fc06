// Retrieval-substrate microbenchmark: flat vs. IVF, seed-scalar vs. blocked
// kernels, 1/2/4/8 threads, batch sizes 1-64, the certified scan (the same
// indexes once their SQ mirrors are built, for dense random queries and for
// sparse text-embedded ones). Prints console tables and emits a
// machine-readable BENCH_retrieval.json (QPS + p50/p99 per-query latency
// per configuration) so future PRs can track the perf trajectory.
//
// On a 1-CPU host the multi-thread grid rows are skipped (announced once):
// they would only measure worker-pool overhead, and their QPS would poison
// the checked-in baseline. The summary row records `host_cpus` so baselines
// are comparable across machines.
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

// Runs `queries` through the index in groups of `batch`, timing each batch
// call; per-query latency is batch time / batch size.
Measurement MeasureBatched(const VectorIndex& index, const std::vector<Embedding>& queries,
                           size_t k, size_t batch, ThreadPool* pool) {
  Samples latencies_ms;
  size_t done = 0;
  auto start = Clock::now();
  while (done < queries.size()) {
    size_t take = std::min(batch, queries.size() - done);
    std::vector<Embedding> group(queries.begin() + done, queries.begin() + done + take);
    std::vector<RetrievalQuality> qualities(take);
    auto t0 = Clock::now();
    auto hits = index.SearchBatch(group, k, pool, qualities);
    double call_s = SecondsSince(t0);
    for (size_t i = 0; i < take; ++i) {
      latencies_ms.Add(call_s / static_cast<double>(take) * 1e3);
    }
    done += take;
  }
  double total_s = SecondsSince(start);
  Measurement m;
  m.qps = static_cast<double>(queries.size()) / total_s;
  m.p50_ms = latencies_ms.median();
  m.p99_ms = latencies_ms.p99();
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
  auto record = [&records](const std::string& name, const std::string& impl, size_t threads,
                           size_t batch, const Measurement& m) {
    BenchJsonRecord rec;
    rec.name = name;
    rec.tags = {{"impl", impl}};
    rec.metrics = {{"threads", static_cast<double>(threads)},
                   {"batch", static_cast<double>(batch)},
                   {"qps", m.qps},
                   {"p50_ms", m.p50_ms},
                   {"p99_ms", m.p99_ms}};
    records.push_back(std::move(rec));
  };

  // --- Seed scalar baseline (single thread, batch 1) ---
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
  record("flat_seed_scalar_t1_b1", "flat_seed_scalar", 1, 1, seed_m);

  // --- Kernel dispatch tiers (single thread, batch 1) ---
  // One row per CPU-supported tier, so the perf trajectory separates "wider
  // SIMD" from the substrate-level wins. Rankings are bit-identical across
  // tiers (see kernels.h); only throughput may differ.
  {
    Table tier_table("bench_retrieval: flat QPS per kernel dispatch tier (t=1, b=1)");
    tier_table.SetHeader({"tier", "qps", "p50_ms", "p99_ms"});
    for (KernelTarget target : {KernelTarget::kScalar, KernelTarget::kAvx2}) {
      if (!KernelTargetSupported(target)) {
        std::printf("  [SKIP] kernel tier %s: not supported by this CPU\n",
                    KernelTargetName(target));
        continue;
      }
      SetKernelTarget(target);
      // Warmup under this tier.
      flat.SearchBatch({queries[0]}, kTopK, nullptr, std::vector<RetrievalQuality>(1));
      Measurement m = MeasureBatched(flat, queries, kTopK, 1, nullptr);
      record(StrFormat("flat_blocked_%s_t1_b1", KernelTargetName(target)),
             StrFormat("flat_blocked_%s", KernelTargetName(target)), 1, 1, m);
      tier_table.AddRow({KernelTargetName(target), Table::Num(m.qps, 0),
                         Table::Num(m.p50_ms, 3), Table::Num(m.p99_ms, 3)});
    }
    ResetKernelTarget();
    tier_table.Print();
  }

  // --- Blocked flat + IVF across threads and batch sizes ---
  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());
  std::vector<size_t> thread_grid = {1, 2, 4, 8};
  if (host_cpus == 1) {
    // Announced once, not per grid row: with one hardware thread every t>1
    // row measures pool overhead, not scaling.
    std::printf("  [SKIP] multi-thread grid rows (t=2/4/8): host exposes 1 hardware thread\n");
    thread_grid = {1};
  }
  const std::vector<size_t>& kThreads = thread_grid;
  const std::vector<size_t> kBatches = {1, 4, 16, 64};
  Table flat_table("bench_retrieval: blocked flat QPS (n=50k, dim=256, k=10)");
  std::vector<std::string> header = {"threads \\ batch"};
  for (size_t b : kBatches) {
    header.push_back(StrFormat("b=%zu", b));
  }
  flat_table.SetHeader(header);

  double flat_t1_b1_qps = 0;
  double flat_t4_qps = 0;
  // Warmup.
  flat.SearchBatch(queries, kTopK, nullptr, std::vector<RetrievalQuality>(queries.size()));
  for (size_t threads : kThreads) {
    ThreadPool pool(threads);
    std::vector<std::string> row = {StrFormat("t=%zu", threads)};
    for (size_t batch : kBatches) {
      Measurement m = MeasureBatched(flat, queries, kTopK, batch, threads > 1 ? &pool : nullptr);
      record(StrFormat("flat_blocked_t%zu_b%zu", threads, batch), "flat_blocked", threads, batch,
             m);
      row.push_back(Table::Num(m.qps, 0));
      if (threads == 1 && batch == 1) {
        flat_t1_b1_qps = m.qps;
      }
      if (threads == 4 && batch == 64) {
        flat_t4_qps = m.qps;
      }
    }
    flat_table.AddRow(row);
  }
  flat_table.Print();
  // The exact scan's cost does not depend on the query's sparsity; this row
  // shows it, as the base for the text-query certified ratio below.
  Measurement flat_text_m = MeasureBatched(flat, text_queries, kTopK, 1, nullptr);
  record("flat_blocked_text_t1_b1", "flat_blocked_text", 1, 1, flat_text_m);

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
  for (size_t threads : kThreads) {
    ThreadPool pool(threads);
    std::vector<std::string> row = {StrFormat("t=%zu", threads)};
    for (size_t batch : kBatches) {
      Measurement m = MeasureBatched(ivf, queries, kTopK, batch, threads > 1 ? &pool : nullptr);
      record(StrFormat("ivf_blocked_t%zu_b%zu", threads, batch), "ivf_blocked", threads, batch, m);
      row.push_back(Table::Num(m.qps, 0));
    }
    ivf_table.AddRow(row);
  }
  ivf_table.Print();

  // --- Certified scan: the same indexes with their SQ mirrors built ---
  // Every row above ran with no mirror, i.e. the plain exact loop. Here each
  // index builds its mirror the way VectorDatabase::FinalizeIndex does
  // (encoded across a default-size pool), after which every fp32 read is the
  // certified two-pass scan — results bit-identical, so only speed moves.
  // Pass 1 reads only the dimension pairs a query weights, so each backend
  // runs the dense random queries and the sparse text-embedded ones.
  double flat_certified_t1_b1_qps = 0;
  double flat_certified_text_t1_b1_qps = 0;
  {
    const std::vector<size_t> kCertBatches = {1, 64};
    Table cert_table("bench_retrieval: certified scan QPS (SQ mirror built)");
    std::vector<std::string> cert_header = {"backend/threads \\ batch"};
    for (size_t b : kCertBatches) {
      cert_header.push_back(StrFormat("b=%zu", b));
    }
    cert_table.SetHeader(cert_header);
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
      index->SearchBatch(queries, kTopK, nullptr, std::vector<RetrievalQuality>(queries.size()));
      for (const auto& [kind, kind_queries] :
           std::vector<std::pair<std::string, const std::vector<Embedding>*>>{
               {"", &queries}, {"_text", &text_queries}}) {
        for (size_t threads : kThreads) {
          if (threads != 1 && threads != 4) {
            continue;
          }
          ThreadPool pool(threads);
          std::vector<std::string> row = {
              StrFormat("%s%s t=%zu", backend.c_str(), kind.c_str(), threads)};
          for (size_t batch : kCertBatches) {
            Measurement m = MeasureBatched(*index, *kind_queries, kTopK, batch,
                                           threads > 1 ? &pool : nullptr);
            std::string impl = StrFormat("%s_certified%s", backend.c_str(), kind.c_str());
            record(StrFormat("%s_t%zu_b%zu", impl.c_str(), threads, batch), impl, threads,
                   batch, m);
            row.push_back(Table::Num(m.qps, 0));
            if (backend == "flat" && threads == 1 && batch == 1) {
              (kind.empty() ? flat_certified_t1_b1_qps : flat_certified_text_t1_b1_qps) = m.qps;
            }
          }
          cert_table.AddRow(row);
        }
      }
    }
    cert_table.Print();
  }

  // --- Verdicts ---
  double speedup = seed_m.qps > 0 ? flat_t1_b1_qps / seed_m.qps : 0;
  std::printf("\nseed scalar: %.0f qps (p50 %.2f ms) | blocked t1/b1: %.0f qps (speedup %.1fx)\n",
              seed_m.qps, seed_m.p50_ms, flat_t1_b1_qps, speedup);
  std::printf("certified flat t1/b1: %.0f qps (%.2fx the mirror-free scan)\n",
              flat_certified_t1_b1_qps, flat_certified_t1_b1_qps / std::max(1.0, flat_t1_b1_qps));
  std::printf("certified flat t1/b1, text queries: %.0f qps (%.2fx the mirror-free scan)\n",
              flat_certified_text_t1_b1_qps,
              flat_certified_text_t1_b1_qps / std::max(1.0, flat_text_m.qps));
  PrintShapeCheck(StrFormat("blocked flat search >= 5x seed scalar at dim=%zu, n=%zu", dim, n),
                  StrFormat("%.1fx single-thread speedup", speedup), speedup >= 5.0);
  if (ThreadPool::DefaultThreads() >= 4) {
    PrintShapeCheck("near-linear batched scaling to 4 threads",
                    StrFormat("t4/b64 %.0f qps vs t1/b1 %.0f qps (%.2fx)", flat_t4_qps,
                              flat_t1_b1_qps, flat_t4_qps / std::max(1.0, flat_t1_b1_qps)),
                    flat_t4_qps >= 2.5 * flat_t1_b1_qps);
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
