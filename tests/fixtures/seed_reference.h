// Frozen copy of the seed (pre-rebuild) FlatL2Index::Search: scalar
// double-precision difference loop, a hit materialized for every row, full
// stable_sort, truncate. This is the canonical baseline that the parity tests
// assert ranking-equality against and that bench_retrieval reports speedups
// over — keep it bit-for-bit as the seed wrote it; do not "improve" it.
//
// Header-only and test/bench-facing: production code must not depend on it.

#ifndef METIS_TESTS_FIXTURES_SEED_REFERENCE_H_
#define METIS_TESTS_FIXTURES_SEED_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/vectordb/vectordb.h"

namespace metis {

struct SeedFlatIndex {
  size_t dim;
  std::vector<ChunkId> ids;
  std::vector<float> data;  // Row-major.

  explicit SeedFlatIndex(size_t d) : dim(d) {}

  void Add(ChunkId id, const Embedding& v) {
    ids.push_back(id);
    data.insert(data.end(), v.begin(), v.end());
  }

  std::vector<SearchHit> Search(const Embedding& query, size_t k) const {
    std::vector<SearchHit> hits;
    hits.reserve(ids.size());
    for (size_t row = 0; row < ids.size(); ++row) {
      const float* p = &data[row * dim];
      double d = 0;
      for (size_t j = 0; j < dim; ++j) {
        double diff = static_cast<double>(p[j]) - query[j];
        d += diff * diff;
      }
      hits.push_back(SearchHit{ids[row], static_cast<float>(d)});
    }
    std::stable_sort(hits.begin(), hits.end(),
                     [](const SearchHit& a, const SearchHit& b) { return a.distance < b.distance; });
    if (hits.size() > k) {
      hits.resize(k);
    }
    return hits;
  }
};

// Shared corpus helper for the parity tests and the retrieval bench.
inline Embedding RandomUnitVector(Rng& rng, size_t dim) {
  Embedding v(dim);
  double norm2 = 0;
  for (size_t j = 0; j < dim; ++j) {
    v[j] = static_cast<float>(rng.Normal(0, 1));
    norm2 += static_cast<double>(v[j]) * v[j];
  }
  float inv = norm2 > 0 ? static_cast<float>(1.0 / std::sqrt(norm2)) : 0.0f;
  for (float& x : v) {
    x *= inv;
  }
  return v;
}

}  // namespace metis

#endif  // METIS_TESTS_FIXTURES_SEED_REFERENCE_H_
