// Heterogeneous per-query RetrievalQuality parity: a SearchBatch in which
// every query carries its OWN retrieval depth (the profiler-driven per-query
// knob) must return ids, order, and float distances bit-equal to per-query
// Search calls — across backends (flat, IVF) and thread counts {1, 4} — and
// the probe accounting (totals AND per-query histogram) must agree exactly.
// This is the contract that lets one sweep (VectorDatabase::RetrieveBatch,
// perfbench's replay, RecallEval) mix per-query budgets.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/vectordb/vectordb.h"
#include "tests/fixtures/clustered_corpus.h"

namespace metis {
namespace {

// The quality mix a per-query-depth serving stack actually produces: fixed
// and adaptive modes, budgets from minimal to past-nlist, index defaults.
std::vector<RetrievalQuality> QualityMix(size_t n) {
  std::vector<RetrievalQuality> mix;
  for (size_t i = 0; i < n; ++i) {
    RetrievalQuality q;
    switch (i % 6) {
      case 0:
        q.mode = RetrievalQuality::ProbeMode::kFixed;
        q.nprobe = 1;
        break;
      case 1:
        q.mode = RetrievalQuality::ProbeMode::kFixed;
        q.nprobe = 3;
        break;
      case 2:
        q.mode = RetrievalQuality::ProbeMode::kAdaptive;
        q.nprobe = 8;
        break;
      case 3:
        q.mode = RetrievalQuality::ProbeMode::kIndexDefault;
        break;
      case 4:
        q.mode = RetrievalQuality::ProbeMode::kAdaptive;
        q.nprobe = 2;
        break;
      case 5:
        q.mode = RetrievalQuality::ProbeMode::kFixed;
        q.nprobe = 100;  // Past nlist: plan clamps to every list.
        break;
    }
    mix.push_back(q);
  }
  return mix;
}

struct ProbeSnapshot {
  uint64_t searches = 0;
  uint64_t probes = 0;
  std::vector<uint64_t> hist;
};

ProbeSnapshot SnapshotAndReset(const IvfL2Index& ivf) {
  ProbeSnapshot snap{ivf.searches(), ivf.probes_issued(), ivf.probe_histogram()};
  ivf.ResetProbeStats();
  return snap;
}

void ExpectHitsBitEqual(const std::vector<SearchHit>& got, const std::vector<SearchHit>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t h = 0; h < got.size(); ++h) {
    EXPECT_EQ(got[h].id, want[h].id) << label << " hit " << h;
    // Bit equality, not approximate: memcmp through the float.
    EXPECT_EQ(got[h].distance, want[h].distance) << label << " hit " << h;
  }
}

TEST(MixedQualityParityTest, IvfBatchMatchesPerQueryScansAcrossThreads) {
  const size_t kDim = 32;
  const size_t kClusters = 8;
  ClusteredCorpus corpus = MakeClusteredCorpus(kDim, kClusters, /*points_per_cluster=*/60,
                                               /*num_easy=*/18, /*num_hard=*/6, 0x9177,
                                               /*mix_way=*/4);
  std::vector<Embedding> queries = corpus.AllQueries();
  std::vector<RetrievalQuality> qualities = QualityMix(queries.size());
  const size_t kTopK = 10;

  IvfL2Index ivf(kDim, /*nlist=*/kClusters, /*nprobe=*/2, /*seed=*/0x5EED);
  for (size_t i = 0; i < corpus.points.size(); ++i) {
    ivf.Add(static_cast<ChunkId>(i), corpus.points[i]);
  }
  ivf.Train();
  AdaptiveProbePolicy policy;
  policy.enabled = false;  // Index default stays fixed; overrides force modes.
  policy.min_probes = 1;
  policy.distance_ratio = 1.5;
  ivf.set_adaptive_probe(policy);

  // Reference: per-query scans, each under its own quality.
  ivf.ResetProbeStats();
  std::vector<std::vector<SearchHit>> want;
  for (size_t i = 0; i < queries.size(); ++i) {
    want.push_back(ivf.Search(queries[i], kTopK, qualities[i]));
  }
  ProbeSnapshot want_probes = SnapshotAndReset(ivf);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    std::vector<std::vector<SearchHit>> got = ivf.SearchBatch(queries, kTopK, &pool, qualities);
    ProbeSnapshot got_probes = SnapshotAndReset(ivf);

    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectHitsBitEqual(got[i], want[i],
                         "threads=" + std::to_string(threads) + " query=" + std::to_string(i));
    }
    EXPECT_EQ(got_probes.searches, want_probes.searches);
    EXPECT_EQ(got_probes.probes, want_probes.probes);
    EXPECT_EQ(got_probes.hist, want_probes.hist);
  }
}

TEST(MixedQualityParityTest, FlatBatchIgnoresQualitiesAndMatchesPerQueryScans) {
  const size_t kDim = 32;
  ClusteredCorpus corpus = MakeClusteredCorpus(kDim, 8, 40, 12, 4, 0xF1A7, 4);
  std::vector<Embedding> queries = corpus.AllQueries();
  std::vector<RetrievalQuality> qualities = QualityMix(queries.size());
  const size_t kTopK = 10;

  FlatL2Index flat(kDim);
  for (size_t i = 0; i < corpus.points.size(); ++i) {
    flat.Add(static_cast<ChunkId>(i), corpus.points[i]);
  }
  std::vector<std::vector<SearchHit>> want;
  for (size_t i = 0; i < queries.size(); ++i) {
    want.push_back(flat.Search(queries[i], kTopK, qualities[i]));
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    std::vector<std::vector<SearchHit>> got = flat.SearchBatch(queries, kTopK, &pool, qualities);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectHitsBitEqual(got[i], want[i],
                         "flat threads=" + std::to_string(threads) + " query=" + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace metis
