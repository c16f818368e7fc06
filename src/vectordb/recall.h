// Recall evaluation for approximate indexes.
//
// Ground truth for recall@k is the exact flat scan: for each query, the set
// of ids FlatL2Index returns at depth k. An approximate index's recall@k is
// the mean fraction of that set it recovers (set overlap — rank order within
// the top-k does not matter, matching the usual ANN-benchmarks definition).
//
// Typical use (bench_recall, recall tests):
//
//   RecallEval eval(flat, queries, /*k=*/10);
//   double r = eval.Evaluate(ivf);                 // index's own policy
//   double r2 = eval.Evaluate(ivf, &pool, quality) // forced probe mode
//
// Ground truth is computed once at construction and reused across every
// candidate index / probe configuration in a sweep.

#ifndef METIS_SRC_VECTORDB_RECALL_H_
#define METIS_SRC_VECTORDB_RECALL_H_

#include <cstddef>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/vectordb/vectordb.h"

namespace metis {

// Mean recall@k of `got` against `truth` (both outer-indexed by query).
// got[i] may be shorter than truth[i] (early-terminated probes); extra hits
// beyond the truth depth never help. Empty truth rows count as recall 1.
double RecallAtK(const std::vector<std::vector<SearchHit>>& got,
                 const std::vector<std::vector<SearchHit>>& truth);

class RecallEval {
 public:
  // Computes exact ground truth for `queries` at depth `k`, one flat Search
  // per query, split across `pool` when given. `truth` is borrowed and must
  // outlive the eval only during construction.
  RecallEval(const FlatL2Index& truth, std::vector<Embedding> queries, size_t k,
             ThreadPool* pool = nullptr);

  // Wraps precomputed ground truth directly — the cheap path for sweeps that
  // evaluate many configurations (probe grids, quantized tiers, rerank
  // factors) over ONE corpus: compute truth once, share it across every
  // grid cell instead of re-running (or worse, rebuilding) the O(n·q) flat
  // scan per cell. `truth[i]` is the exact top-k for `queries[i]`.
  RecallEval(std::vector<Embedding> queries, size_t k,
             std::vector<std::vector<SearchHit>> truth);

  // Recall@k of `index` over the eval's query set at `quality`: the index's
  // own probe policy by default, or an explicit override (the probe fields
  // steer IVF only). One Search per query, split across `pool` when given;
  // the recall and an IVF index's probe counts do not depend on the split.
  double Evaluate(const VectorIndex& index, ThreadPool* pool = nullptr,
                  const RetrievalQuality& quality = {}) const;

  size_t k() const { return k_; }
  const std::vector<Embedding>& queries() const { return queries_; }
  const std::vector<std::vector<SearchHit>>& ground_truth() const { return truth_; }

 private:
  size_t k_;
  std::vector<Embedding> queries_;
  std::vector<std::vector<SearchHit>> truth_;
};

}  // namespace metis

#endif  // METIS_SRC_VECTORDB_RECALL_H_
