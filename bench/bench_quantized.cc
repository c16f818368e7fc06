// Quantized-tier bench: QPS / recall@10 / bytes-per-row across scan tiers
// (ISSUE 8; ROADMAP "quantized index tiers as a schedulable precision knob").
//
// Sweeps fp32 / int8-SQ / PQ x rerank_factor on the shared clustered corpus,
// over both static backends (flat exhaustive, IVF fixed-probe), and reports
// each cell's single-thread QPS, recall@10 against exact flat ground truth,
// and the tier's storage bytes per row. Two self-check verdicts pin the
// tentpole's acceptance claims:
//
//   - int8 + rerank beats the exhaustive fp32 flat scan by >= 1.5x QPS while
//     holding recall@10 >= 0.99 (the asymmetric u8xf32 kernel reads 4x fewer
//     bytes and the exact rerank tail recovers the ranking);
//   - the PQ tier stores >= 8x fewer bytes per row than fp32.
//
// Output: console tables + BENCH_quantized.json (schema in docs/BENCH.md),
// gated against bench/baselines/BENCH_quantized.baseline.json by the
// check_bench_regression target (qps 20%, recall_at_10 2%, bytes_per_row
// growth via --direction lower).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/vectordb/clustered_corpus.h"
#include "src/vectordb/kernels.h"
#include "src/vectordb/recall.h"
#include "src/vectordb/vectordb.h"

using namespace metis;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Measurement {
  double recall = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  size_t bytes_per_row = 0;
};

size_t BytesPerRow(const VectorIndex& index, RetrievalPrecision tier) {
  if (const auto* flat = dynamic_cast<const FlatL2Index*>(&index)) {
    return flat->bytes_per_row(tier);
  }
  if (const auto* ivf = dynamic_cast<const IvfL2Index*>(&index)) {
    return ivf->bytes_per_row(tier);
  }
  return 0;
}

// Best-of-3 timing repetitions: results are deterministic, so repetitions
// only exist to shake off scheduler noise on shared machines — the fastest
// pass is the least-perturbed one, and it is what the checked-in QPS
// baseline gates against.
Measurement Measure(const VectorIndex& index, const RecallEval& eval,
                    const RetrievalQuality& quality) {
  constexpr int kReps = 3;
  Measurement m;
  m.recall = eval.Evaluate(index, nullptr, quality);
  m.bytes_per_row = BytesPerRow(index, quality.precision);
  for (int rep = 0; rep < kReps; ++rep) {
    Samples lat_ms;
    auto start = Clock::now();
    for (const Embedding& q : eval.queries()) {
      auto t0 = Clock::now();
      auto hits = index.Search(q, eval.k(), quality);
      lat_ms.Add(SecondsSince(t0) * 1e3);
      if (hits.empty()) {
        std::printf("unexpected empty results\n");
      }
    }
    double qps = static_cast<double>(eval.queries().size()) / SecondsSince(start);
    if (qps > m.qps) {
      m.qps = qps;
      m.p50_ms = lat_ms.median();
      m.p99_ms = lat_ms.p99();
    }
  }
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
    }
  }
  size_t n = clusters * per_cluster;
  std::printf("Building clustered corpus: n=%zu, dim=%zu, %zu easy + %zu hard queries, "
              "kernel=%s ...\n",
              n, dim, num_easy, num_hard, KernelTargetName(ActiveKernelTarget()));
  ClusteredCorpus corpus =
      MakeClusteredCorpus(dim, clusters, per_cluster, num_easy, num_hard, 0x5CA1E, kMixWay);

  QuantizationOptions quant;
  quant.sq = true;
  quant.pq = true;
  quant.pq_m = 8;

  // One exact ground truth shared by every grid cell (the RecallEval cheap
  // path: no per-cell flat rebuild).
  FlatL2Index flat(dim, /*num_shards=*/1, quant);
  for (size_t i = 0; i < corpus.points.size(); ++i) {
    flat.Add(static_cast<ChunkId>(i), corpus.points[i]);
  }
  {
    auto t0 = Clock::now();
    flat.BuildQuantizedMirrors(nullptr);
    std::printf("flat mirror train+encode: %.2f s\n", SecondsSince(t0));
  }
  RecallEval eval = RecallEval::FromExactSearch(flat, corpus.AllQueries(), kTopK);

  IvfL2Index ivf(dim, clusters, /*nprobe=*/8, 0x1F5EED, /*num_shards=*/1, quant);
  for (size_t i = 0; i < corpus.points.size(); ++i) {
    ivf.Add(static_cast<ChunkId>(i), corpus.points[i]);
  }
  {
    ThreadPool pool(ThreadPool::DefaultThreads());
    auto t0 = Clock::now();
    ivf.Train(&pool);
    ivf.BuildQuantizedMirrors(&pool);
    std::printf("IVF nlist=%zu train + mirrors: %.2f s\n", clusters, SecondsSince(t0));
  }

  std::vector<BenchJsonRecord> records;
  auto record = [&records](const std::string& name, const std::string& impl,
                           RetrievalPrecision tier, size_t rerank, const Measurement& m) {
    BenchJsonRecord rec;
    rec.name = name;
    rec.tags = {{"impl", impl}, {"tier", RetrievalPrecisionName(tier)}};
    rec.metrics = {{"rerank_factor", static_cast<double>(rerank)},
                   {"recall_at_10", m.recall},
                   {"qps", m.qps},
                   {"p50_ms", m.p50_ms},
                   {"p99_ms", m.p99_ms},
                   {"bytes_per_row", static_cast<double>(m.bytes_per_row)}};
    records.push_back(std::move(rec));
  };

  struct Cell {
    RetrievalPrecision tier;
    size_t rerank;  // 0 = n/a (fp32).
  };
  std::vector<Cell> cells = {{RetrievalPrecision::kFp32, 0}};
  for (RetrievalPrecision tier : {RetrievalPrecision::kInt8, RetrievalPrecision::kPq}) {
    for (size_t rerank : {size_t{2}, size_t{4}, size_t{8}}) {
      cells.push_back(Cell{tier, rerank});
    }
  }

  double flat_fp32_qps = 0;
  double flat_int8_qps = 0;
  double flat_int8_recall = 0;
  size_t flat_int8_rerank = 0;
  size_t fp32_bytes = 0;
  size_t pq_bytes = 0;
  for (const auto& [impl, index] :
       std::vector<std::pair<std::string, const VectorIndex*>>{{"flat", &flat}, {"ivf", &ivf}}) {
    Table table(StrFormat("bench_quantized (%s): recall@10 / QPS / bytes-per-row", impl.c_str()));
    table.SetHeader({"tier", "rerank", "recall@10", "qps", "p50_ms", "bytes/row"});
    for (const Cell& cell : cells) {
      RetrievalQuality quality;
      quality.precision = cell.tier;
      quality.rerank_factor = cell.rerank;
      Measurement m = Measure(*index, eval, quality);
      std::string name = cell.rerank == 0
                             ? StrFormat("%s_%s", impl.c_str(), RetrievalPrecisionName(cell.tier))
                             : StrFormat("%s_%s_rf%zu", impl.c_str(),
                                         RetrievalPrecisionName(cell.tier), cell.rerank);
      record(name, impl, cell.tier, cell.rerank, m);
      table.AddRow({RetrievalPrecisionName(cell.tier),
                    cell.rerank == 0 ? "-" : StrFormat("%zu", cell.rerank),
                    Table::Num(m.recall, 4), Table::Num(m.qps, 0), Table::Num(m.p50_ms, 3),
                    StrFormat("%zu", m.bytes_per_row)});
      if (impl == "flat") {
        if (cell.tier == RetrievalPrecision::kFp32) {
          flat_fp32_qps = m.qps;
          fp32_bytes = m.bytes_per_row;
        } else if (cell.tier == RetrievalPrecision::kInt8 && m.recall >= 0.99 &&
                   m.qps > flat_int8_qps) {
          // Best int8 cell that still recovers exact recall: the knob a
          // scheduler would actually pick.
          flat_int8_qps = m.qps;
          flat_int8_recall = m.recall;
          flat_int8_rerank = cell.rerank;
        } else if (cell.tier == RetrievalPrecision::kPq && cell.rerank == 4) {
          pq_bytes = m.bytes_per_row;
        }
      }
    }
    table.Print();
  }

  PrintShapeCheck(
      "int8 SQ + exact rerank >= 1.5x flat fp32 QPS at recall@10 >= 0.99",
      StrFormat("int8 rf=%zu %.0f qps vs fp32 %.0f qps (%.2fx), recall@10 %.4f",
                flat_int8_rerank, flat_int8_qps, flat_fp32_qps,
                flat_fp32_qps > 0 ? flat_int8_qps / flat_fp32_qps : 0, flat_int8_recall),
      flat_int8_qps >= 1.5 * flat_fp32_qps && flat_int8_recall >= 0.99);
  PrintShapeCheck(
      "PQ tier stores >= 8x fewer bytes per row than fp32",
      StrFormat("fp32 %zu B/row vs pq %zu B/row (%.1fx)", fp32_bytes, pq_bytes,
                pq_bytes > 0 ? static_cast<double>(fp32_bytes) / pq_bytes : 0),
      pq_bytes > 0 && fp32_bytes >= 8 * pq_bytes);

  WriteBenchJson("BENCH_quantized.json", "bench_quantized", records,
                 StrFormat("clustered corpus n=%zu dim=%zu; kernel=%s; single-thread QPS", n,
                           dim, KernelTargetName(ActiveKernelTarget())));
  return 0;
}
