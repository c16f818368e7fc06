// Clustered synthetic corpus for recall evaluation — shared by the recall
// tests and bench_recall so the geometry that pins the adaptive-vs-fixed
// claims cannot silently diverge from the geometry the bench measures.
//
// Orthogonal constant-norm clusters: cluster c sits at 10 * e_c (requires
// dim >= num_clusters), with tight gaussian jitter. The geometry is chosen so
// probe difficulty is controllable: an in-cluster ("easy") query has one
// centroid at tiny distance and every other at ~2x the inter-center norm,
// while a `mix_way`-cluster midpoint ("hard") query is *exactly* equidistant
// from its mix_way source centroids, so its true top-k provably straddles
// several inverted lists.
//
// Header-only and test/bench-facing: production code must not depend on it.

#ifndef METIS_TESTS_FIXTURES_CLUSTERED_CORPUS_H_
#define METIS_TESTS_FIXTURES_CLUSTERED_CORPUS_H_

#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/embed/embedding.h"

namespace metis {

inline Embedding Jitter(Rng& rng, const Embedding& base, double sigma) {
  Embedding v = base;
  for (float& x : v) {
    x += static_cast<float>(rng.Normal(0, sigma));
  }
  return v;
}

struct ClusteredCorpus {
  std::vector<Embedding> centers;
  std::vector<Embedding> points;
  std::vector<Embedding> easy_queries;  // Inside one cluster.
  std::vector<Embedding> hard_queries;  // Midpoint of mix_way clusters.

  // Easy queries first, hard queries after — the order every consumer uses.
  std::vector<Embedding> AllQueries() const {
    std::vector<Embedding> queries = easy_queries;
    queries.insert(queries.end(), hard_queries.begin(), hard_queries.end());
    return queries;
  }
};

inline ClusteredCorpus MakeClusteredCorpus(size_t dim, size_t num_clusters,
                                           size_t points_per_cluster, size_t num_easy,
                                           size_t num_hard, uint64_t seed, size_t mix_way = 4) {
  METIS_CHECK_GE(dim, num_clusters);
  METIS_CHECK_GT(num_clusters, mix_way);
  Rng rng(seed);
  ClusteredCorpus corpus;
  for (size_t c = 0; c < num_clusters; ++c) {
    Embedding center(dim, 0.0f);
    center[c] = 10.0f;
    corpus.centers.push_back(std::move(center));
  }
  for (size_t c = 0; c < num_clusters; ++c) {
    for (size_t p = 0; p < points_per_cluster; ++p) {
      corpus.points.push_back(Jitter(rng, corpus.centers[c], 0.35));
    }
  }
  for (size_t q = 0; q < num_easy; ++q) {
    size_t c = rng.Index(num_clusters);
    corpus.easy_queries.push_back(Jitter(rng, corpus.centers[c], 0.35));
  }
  for (size_t q = 0; q < num_hard; ++q) {
    std::vector<size_t> picks;
    while (picks.size() < mix_way) {
      size_t p = rng.Index(num_clusters);
      bool dup = false;
      for (size_t o : picks) {
        dup = dup || o == p;
      }
      if (!dup) {
        picks.push_back(p);
      }
    }
    Embedding mid(dim, 0.0f);
    for (size_t p : picks) {
      for (size_t j = 0; j < dim; ++j) {
        mid[j] += corpus.centers[p][j] / static_cast<float>(mix_way);
      }
    }
    corpus.hard_queries.push_back(Jitter(rng, mid, 0.35));
  }
  return corpus;
}

}  // namespace metis

#endif  // METIS_TESTS_FIXTURES_CLUSTERED_CORPUS_H_
