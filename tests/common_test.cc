// Unit tests for src/common: RNG, stats, strings, table.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/common/table.h"

namespace metis {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkIsIndependentOfParentConsumption) {
  Rng a(42);
  Rng b(42);
  a.NextU64();  // Consume from one parent only.
  EXPECT_EQ(a.Fork("child").NextU64(), b.Fork("child").NextU64());
}

TEST(RngTest, ForkTagsProduceDistinctStreams) {
  Rng a(42);
  EXPECT_NE(a.Fork("x").NextU64(), a.Fork("y").NextU64());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(9);
  EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, BernoulliRateApproximatesP) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(rng.Normal(5.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(rng.Exponential(2.0));
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.03);
}

TEST(RngTest, PoissonMean) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 10000; ++i) {
    stats.Add(rng.Poisson(3.5));
  }
  EXPECT_NEAR(stats.mean(), 3.5, 0.15);
}

TEST(RngTest, ZipfRankZeroMostLikely) {
  Rng rng(29);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[static_cast<size_t>(rng.Zipf(10, 1.1))];
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(HashString64Test, StableAndDistinct) {
  EXPECT_EQ(HashString64("hello"), HashString64("hello"));
  EXPECT_NE(HashString64("hello"), HashString64("hellp"));
  EXPECT_NE(HashString64(""), HashString64("a"));
}

TEST(RunningStatsTest, Basics) {
  RunningStats s;
  s.Add(1);
  s.Add(2);
  s.Add(3);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SamplesTest, QuantilesExact) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.p90(), 90.1, 1e-9);
}

TEST(SamplesTest, QuantileAfterAppendResorts) {
  Samples s;
  s.Add(10);
  s.Add(20);
  EXPECT_DOUBLE_EQ(s.median(), 15.0);
  s.Add(0);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
}

TEST(SamplesTest, MeanSumMinMax) {
  Samples s;
  s.AddAll({4.0, 2.0, 6.0});
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 12.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(StringsTest, SplitWordsDropsEmpty) {
  auto parts = SplitWords("  a  b\tc\n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, " "), "a b c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StringsTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("HeLLo-9"), "hello-9");
}

TEST(StringsTest, StripPunct) {
  EXPECT_EQ(StripPunct("(hello!)"), "hello");
  EXPECT_EQ(StripPunct("..."), "");
  EXPECT_EQ(StripPunct("a"), "a");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(TableTest, RendersHeaderAndRows) {
  Table t("demo");
  t.SetHeader({"a", "bb"});
  t.AddRow({"1", "2"});
  t.AddRow({"333", "4"});
  std::string r = t.Render();
  EXPECT_NE(r.find("demo"), std::string::npos);
  EXPECT_NE(r.find("333"), std::string::npos);
  EXPECT_NE(r.find("| a "), std::string::npos);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}

}  // namespace
}  // namespace metis
