// Unit tests for the embedding model: geometry and retrieval-relevant
// properties (similar texts close, unrelated texts near-orthogonal).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/embed/embedding.h"
#include "src/workload/dataset.h"

namespace metis {
namespace {

EmbeddingModel Cohere() { return EmbeddingModel(GetEmbeddingModel("cohere-embed-v3-sim")); }

// Embed as a chain of allocating steps: token strings from split, strip and
// lowercase, each bigram as a concatenated string, every feature through
// HashString64. Embed must reproduce it bit for bit.
Embedding ReferenceEmbed(const EmbeddingModelSpec& spec, std::string_view text) {
  std::vector<std::string> tokens;
  for (const std::string& raw : SplitWords(text)) {
    std::string_view stripped = StripPunct(raw);
    if (!stripped.empty()) {
      tokens.push_back(ToLowerAscii(stripped));
    }
  }
  Embedding v(spec.dim, 0.0f);
  auto add_feature = [&](uint64_t h, double weight) {
    uint64_t st = h ^ spec.hash_salt;
    uint64_t h1 = SplitMix64(st);
    uint64_t h2 = SplitMix64(st);
    float w = static_cast<float>(weight);
    v[static_cast<size_t>(h1 % spec.dim)] += ((h1 >> 63) ? 1.0f : -1.0f) * w;
    v[static_cast<size_t>(h2 % spec.dim)] += ((h2 >> 63) ? 1.0f : -1.0f) * w;
  };
  for (size_t i = 0; i < tokens.size(); ++i) {
    add_feature(HashString64(tokens[i]), 1.0);
    if (i + 1 < tokens.size() && spec.bigram_weight > 0) {
      add_feature(HashString64(tokens[i] + "_" + tokens[i + 1]), spec.bigram_weight);
    }
  }
  double norm2 = 0;
  for (float x : v) {
    norm2 += static_cast<double>(x) * x;
  }
  if (norm2 > 0) {
    float inv = static_cast<float>(1.0 / std::sqrt(norm2));
    for (float& x : v) {
      x *= inv;
    }
  }
  return v;
}

TEST(EmbeddingTest, BitEqualToAllocatingRecipe) {
  std::vector<std::string> texts = {
      "Hello, World!",
      "UPPER lower MiXeD CamelCase",
      "(edge) [brackets] \"quoted\" 'single' end. comma, semi; colon: bang! ask?",
      "\"(Nested.)\" ((deep))",
      "in.side don't a,b x(y)z q?r!s",
      "... !! ?? ;; ()[] '' \" . alpha ?!",
      "tab\tsep\r\nline\nfeed\rcr",
      "  runs   of    spaces  ",
      "   \t\n\r  ",
      "",
      "one",
      "Dash-ed under_score #hash @at 9.5% x/y",
      "vertical\vtab form\ffeed",
  };
  std::unique_ptr<Dataset> data =
      DatasetGenerator(GetDatasetProfile("squad"), 7).Generate(4, "cohere-embed-v3-sim");
  for (size_t i = 0; i < data->db().num_chunks(); i += 7) {
    texts.push_back(data->db().chunk(static_cast<ChunkId>(i)).text);
  }
  for (const RagQuery& q : data->queries()) {
    texts.push_back(q.text);
  }
  ASSERT_GT(texts.size(), 20u);
  for (const EmbeddingModelSpec& spec : EmbeddingModelCatalog()) {
    EmbeddingModel m(spec);
    for (const std::string& text : texts) {
      Embedding got = m.Embed(text);
      Embedding want = ReferenceEmbed(spec, text);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
          << spec.name << " '" << text.substr(0, 60) << "'";
    }
  }
}

TEST(EmbeddingTest, DeterministicPerText) {
  EmbeddingModel m = Cohere();
  EXPECT_EQ(m.Embed("alpha beta gamma"), m.Embed("alpha beta gamma"));
}

TEST(EmbeddingTest, NormalizedToUnitLength) {
  EmbeddingModel m = Cohere();
  Embedding v = m.Embed("some words to embed here");
  double norm = 0;
  for (float x : v) {
    norm += static_cast<double>(x) * x;
  }
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST(EmbeddingTest, EmptyTextIsZeroVector) {
  EmbeddingModel m = Cohere();
  Embedding v = m.Embed("");
  for (float x : v) {
    EXPECT_EQ(x, 0.0f);
  }
}

TEST(EmbeddingTest, SharedVocabularyIsCloserThanDisjoint) {
  EmbeddingModel m = Cohere();
  Embedding q = m.Embed("kimbrough stadium location county");
  Embedding related = m.Embed("the kimbrough stadium location is in randall county texas");
  Embedding unrelated = m.Embed("quarterly revenue growth of semiconductor vendors");
  EXPECT_LT(L2DistanceSquared(q, related), L2DistanceSquared(q, unrelated));
  EXPECT_GT(CosineSimilarity(q, related), CosineSimilarity(q, unrelated));
}

TEST(EmbeddingTest, MoreOverlapMeansCloser) {
  EmbeddingModel m = Cohere();
  Embedding q = m.Embed("alpha beta gamma delta");
  Embedding three = m.Embed("alpha beta gamma zzz yyy");
  Embedding one = m.Embed("alpha qqq rrr sss ttt");
  EXPECT_LT(L2DistanceSquared(q, three), L2DistanceSquared(q, one));
}

TEST(EmbeddingTest, CosineOfIdenticalTextIsOne) {
  EmbeddingModel m = Cohere();
  Embedding a = m.Embed("hello there friend");
  EXPECT_NEAR(CosineSimilarity(a, a), 1.0, 1e-5);
}

TEST(EmbeddingTest, UnrelatedTextsNearOrthogonal) {
  EmbeddingModel m = Cohere();
  Embedding a = m.Embed("stadium county location born");
  Embedding b = m.Embed("voyager spacecraft neptune storms");
  EXPECT_LT(std::abs(CosineSimilarity(a, b)), 0.35);
}

TEST(EmbeddingTest, DifferentModelsDifferentGeometry) {
  EmbeddingModel a(GetEmbeddingModel("cohere-embed-v3-sim"));
  EmbeddingModel b(GetEmbeddingModel("text-embedding-3-large-256-sim"));
  EXPECT_NE(a.Embed("same text"), b.Embed("same text"));
}

TEST(EmbeddingTest, CatalogHasThreeModels) {
  EXPECT_EQ(EmbeddingModelCatalog().size(), 3u);
  EXPECT_EQ(GetEmbeddingModel("all-mpnet-base-v2-sim").dim, 768u);
}

TEST(EmbedBatchTest, MatchesPerTextEmbedForAnyPoolSize) {
  EmbeddingModel m = Cohere();
  std::vector<std::string> texts = {
      "alpha beta gamma", "", "quarterly revenue figures", "alpha beta gamma",
      "committee budget vote outcome",
  };
  std::vector<Embedding> want;
  for (const std::string& t : texts) {
    want.push_back(m.Embed(t));
  }
  for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    std::vector<Embedding> got = m.EmbedBatch(texts, threads == 0 ? nullptr : &pool);
    ASSERT_EQ(got.size(), texts.size());
    for (size_t i = 0; i < texts.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(EmbedBatchTest, EmptyBatchIsEmpty) {
  EmbeddingModel m = Cohere();
  EXPECT_TRUE(m.EmbedBatch({}).empty());
}

TEST(EmbeddingCacheTest, GetMemoizesAndEvictsTheLeastRecentlyUsed) {
  EmbeddingModel m = Cohere();
  EmbeddingCache cache(&m, 2);
  EXPECT_EQ(cache.Get("one text"), m.Embed("one text"));
  EXPECT_EQ(cache.Get("two text"), m.Embed("two text"));
  EXPECT_EQ(cache.Get("one text"), m.Embed("one text"));  // Hit: now most recent.
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.Get("three text"), m.Embed("three text"));  // Evicts "two text".
  EXPECT_EQ(cache.size(), 2u);
  cache.Get("one text");
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.Get("two text"), m.Embed("two text"));  // Evicted: recomputed.
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(EmbeddingDeathTest, UnknownModelAborts) {
  EXPECT_DEATH(GetEmbeddingModel("no-such-model"), "CHECK failed");
}

TEST(EmbeddingDeathTest, DimensionMismatchAborts) {
  Embedding a(4, 0.0f);
  Embedding b(5, 0.0f);
  EXPECT_DEATH(L2DistanceSquared(a, b), "CHECK failed");
}

}  // namespace
}  // namespace metis
