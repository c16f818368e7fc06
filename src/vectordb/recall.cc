#include "src/vectordb/recall.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace metis {

namespace {

// The top-k of every query, one Search each, split across `pool`.
std::vector<std::vector<SearchHit>> SearchEach(const VectorIndex& index,
                                               const std::vector<Embedding>& queries, size_t k,
                                               ThreadPool* pool,
                                               const RetrievalQuality& quality) {
  std::vector<std::vector<SearchHit>> results(queries.size());
  ParallelFor(pool, queries.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      results[i] = index.Search(queries[i], k, quality);
    }
  });
  return results;
}

}  // namespace

double RecallAtK(const std::vector<std::vector<SearchHit>>& got,
                 const std::vector<std::vector<SearchHit>>& truth) {
  METIS_CHECK_EQ(got.size(), truth.size());
  if (truth.empty()) {
    return 1.0;
  }
  double total = 0;
  for (size_t qi = 0; qi < truth.size(); ++qi) {
    if (truth[qi].empty()) {
      total += 1.0;
      continue;
    }
    // Sorted-id intersection: cheap at top-k sizes, no hashing.
    std::vector<ChunkId> want, have;
    want.reserve(truth[qi].size());
    have.reserve(got[qi].size());
    for (const SearchHit& h : truth[qi]) {
      want.push_back(h.id);
    }
    for (const SearchHit& h : got[qi]) {
      have.push_back(h.id);
    }
    std::sort(want.begin(), want.end());
    std::sort(have.begin(), have.end());
    size_t overlap = 0;
    size_t a = 0, b = 0;
    while (a < want.size() && b < have.size()) {
      if (want[a] == have[b]) {
        ++overlap;
        ++a;
        ++b;
      } else if (want[a] < have[b]) {
        ++a;
      } else {
        ++b;
      }
    }
    total += static_cast<double>(overlap) / static_cast<double>(want.size());
  }
  return total / static_cast<double>(truth.size());
}

RecallEval::RecallEval(const FlatL2Index& truth, std::vector<Embedding> queries, size_t k,
                       ThreadPool* pool)
    : k_(k), queries_(std::move(queries)) {
  METIS_CHECK_GT(k, 0u);
  truth_ = SearchEach(truth, queries_, k_, pool, RetrievalQuality{});
}

RecallEval::RecallEval(std::vector<Embedding> queries, size_t k,
                       std::vector<std::vector<SearchHit>> truth)
    : k_(k), queries_(std::move(queries)), truth_(std::move(truth)) {
  METIS_CHECK_GT(k, 0u);
  METIS_CHECK_EQ(queries_.size(), truth_.size());
}

double RecallEval::Evaluate(const VectorIndex& index, ThreadPool* pool,
                            const RetrievalQuality& quality) const {
  return RecallAtK(SearchEach(index, queries_, k_, pool, quality), truth_);
}

}  // namespace metis
