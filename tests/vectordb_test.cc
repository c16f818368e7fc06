// Unit tests for the vector database: flat index, IVF index, chunk store.

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/vectordb/vectordb.h"

namespace metis {
namespace {

Embedding MakeVec(std::initializer_list<float> xs) { return Embedding(xs); }

TEST(FlatL2IndexTest, FindsExactNearest) {
  FlatL2Index index(2);
  index.Add(0, MakeVec({0.0f, 0.0f}));
  index.Add(1, MakeVec({1.0f, 0.0f}));
  index.Add(2, MakeVec({0.0f, 2.0f}));
  auto hits = index.Search(MakeVec({0.9f, 0.1f}), 2, RetrievalQuality{});
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1);
  EXPECT_EQ(hits[1].id, 0);
  EXPECT_LT(hits[0].distance, hits[1].distance);
}

TEST(FlatL2IndexTest, KLargerThanSizeReturnsAll) {
  FlatL2Index index(2);
  index.Add(5, MakeVec({1.0f, 1.0f}));
  auto hits = index.Search(MakeVec({0.0f, 0.0f}), 10, RetrievalQuality{});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 5);
}

TEST(FlatL2IndexTest, TiesBrokenByInsertionOrder) {
  FlatL2Index index(1);
  index.Add(7, MakeVec({1.0f}));
  index.Add(3, MakeVec({1.0f}));
  auto hits = index.Search(MakeVec({0.0f}), 2, RetrievalQuality{});
  EXPECT_EQ(hits[0].id, 7);
  EXPECT_EQ(hits[1].id, 3);
}

TEST(FlatL2IndexTest, EmptyIndexReturnsNothing) {
  FlatL2Index index(3);
  EXPECT_TRUE(index.Search(MakeVec({0.0f, 0.0f, 0.0f}), 4, RetrievalQuality{}).empty());
}

class IvfIndexTest : public ::testing::Test {
 protected:
  // Two well-separated clusters around (0,0) and (10,10).
  void BuildClusters(IvfL2Index& index) {
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
      float cx = i < 25 ? 0.0f : 10.0f;
      index.Add(i, MakeVec({cx + static_cast<float>(rng.Uniform(-0.5, 0.5)),
                            cx + static_cast<float>(rng.Uniform(-0.5, 0.5))}));
    }
    index.Train();
  }
};

TEST_F(IvfIndexTest, AgreesWithFlatOnClusteredData) {
  IvfL2Index ivf(2, 2, 2, 99);
  BuildClusters(ivf);
  EXPECT_TRUE(ivf.trained());
  EXPECT_EQ(ivf.size(), 50u);
  auto hits = ivf.Search(MakeVec({10.0f, 10.0f}), 5, RetrievalQuality{});
  ASSERT_EQ(hits.size(), 5u);
  for (const auto& h : hits) {
    EXPECT_GE(h.id, 25);  // All from the (10,10) cluster.
  }
}

TEST_F(IvfIndexTest, NprobeOneStillFindsOwnCluster) {
  IvfL2Index ivf(2, 2, 1, 99);
  BuildClusters(ivf);
  auto hits = ivf.Search(MakeVec({0.0f, 0.0f}), 3, RetrievalQuality{});
  ASSERT_EQ(hits.size(), 3u);
  for (const auto& h : hits) {
    EXPECT_LT(h.id, 25);
  }
}

TEST_F(IvfIndexTest, AddAfterTrainGoesToNearestList) {
  IvfL2Index ivf(2, 2, 2, 99);
  BuildClusters(ivf);
  ivf.Add(100, MakeVec({10.2f, 9.8f}));
  auto hits = ivf.Search(MakeVec({10.2f, 9.8f}), 1, RetrievalQuality{});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 100);
}

TEST_F(IvfIndexTest, SizeIsMaintainedAcrossStagingTrainingAndAdds) {
  IvfL2Index ivf(2, 2, 2, 99);
  EXPECT_EQ(ivf.size(), 0u);
  BuildClusters(ivf);  // 50 staged adds, then Train().
  EXPECT_EQ(ivf.size(), 50u);
  ivf.Add(100, MakeVec({10.2f, 9.8f}));
  ivf.Add(101, MakeVec({0.1f, -0.2f}));
  EXPECT_EQ(ivf.size(), 52u);
}

TEST(IvfIndexTest2, ProbeHistogramClampsDeepScansIntoLastBucket) {
  // nlist wider than the histogram (70 > 65 buckets): a full-width probe must
  // clamp into the last bucket — never index past the array — while the raw
  // probes_issued() tally stays exact.
  constexpr size_t kNlist = IvfL2Index::kProbeHistogramBuckets + 5;
  IvfL2Index ivf(2, kNlist, /*nprobe=*/1, /*seed=*/99);
  Rng rng(11);
  for (int i = 0; i < 280; ++i) {
    ivf.Add(i, MakeVec({static_cast<float>(rng.Uniform(0.0, 10.0)),
                        static_cast<float>(rng.Uniform(0.0, 10.0))}));
  }
  ivf.Train();

  RetrievalQuality full;
  full.mode = RetrievalQuality::ProbeMode::kFixed;
  full.nprobe = kNlist;
  ASSERT_FALSE(ivf.Search(MakeVec({5.0f, 5.0f}), 3, full).empty());

  std::vector<uint64_t> hist = ivf.probe_histogram();
  ASSERT_EQ(hist.size(), IvfL2Index::kProbeHistogramBuckets);
  EXPECT_EQ(hist.back(), 1u);
  uint64_t below_clamp = 0;
  for (size_t b = 0; b + 1 < hist.size(); ++b) {
    below_clamp += hist[b];
  }
  EXPECT_EQ(below_clamp, 0u);
  EXPECT_EQ(ivf.searches(), 1u);
  EXPECT_EQ(ivf.probes_issued(), kNlist);
}

TEST(IvfIndexDeathTest, SearchBeforeTrainAborts) {
  IvfL2Index ivf(2, 2, 1, 1);
  ivf.Add(0, MakeVec({0.0f, 0.0f}));
  EXPECT_DEATH(ivf.Search(MakeVec({0.0f, 0.0f}), 1, RetrievalQuality{}), "CHECK failed");
}

class VectorDatabaseTest : public ::testing::Test {
 protected:
  VectorDatabaseTest()
      : db_(EmbeddingModel(GetEmbeddingModel("cohere-embed-v3-sim")),
            DatabaseMetadata{"test corpus", 64, "test"}) {}

  VectorDatabase db_;
};

TEST_F(VectorDatabaseTest, AddAssignsSequentialIds) {
  Chunk a;
  a.text = "alpha beta";
  Chunk b;
  b.text = "gamma delta";
  EXPECT_EQ(db_.AddChunks({a}), std::vector<ChunkId>{0});
  EXPECT_EQ(db_.AddChunks({b}), std::vector<ChunkId>{1});
  EXPECT_EQ(db_.num_chunks(), 2u);
  EXPECT_EQ(db_.chunk(1).text, "gamma delta");
}

TEST_F(VectorDatabaseTest, RetrievePrefersLexicalOverlap) {
  Chunk relevant;
  relevant.text = "the kimbrough stadium county is randall filler words here";
  Chunk noise;
  noise.text = "semiconductor quarterly revenue numbers and more filler words";
  db_.AddChunks({relevant});
  db_.AddChunks({noise});
  auto ids = db_.Retrieve("in what county is the kimbrough stadium", 2);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 0);
}

TEST_F(VectorDatabaseTest, MetadataAccessible) {
  EXPECT_EQ(db_.metadata().chunk_size_tokens, 64);
  EXPECT_EQ(db_.metadata().description, "test corpus");
}

TEST_F(VectorDatabaseTest, ChunkOutOfRangeAborts) {
  EXPECT_DEATH(db_.chunk(0), "CHECK failed");
}

}  // namespace
}  // namespace metis
