// Unit tests for src/common: RNG, stats, strings, table.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>

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

// The first 16 draws of each per-draw method from a fresh stream, at two
// seeds. Every generated corpus and simulated result follows from these
// sequences, so a faster draw must reproduce them exactly.
TEST(RngTest, PinnedDrawSequences) {
  struct Pin {
    uint64_t seed;
    uint64_t next_u64[16];
    double next_double[16];
    const char* bernoulli;  // Bernoulli(0.35), '1' for true.
    int64_t uniform_int[16];  // UniformInt(-3, 9).
    size_t index_1800[16];
    size_t index_7[16];
  };
  const Pin pins[] = {
      {3,
       {0xb0cdabdae5668cc0ull, 0xa3fd1dea5e1864eeull, 0x37e00afb3229fd51ull,
        0x88b1b58b236f3beaull, 0x6cb24c8fb224980aull, 0x6646287ee2a98083ull,
        0x35cd8bb5e1fa7256ull, 0xb72fe6e16b6fb4e6ull, 0xf1397a9f1db4f5d9ull,
        0x31f25047faa8e5d4ull, 0xec616a6e46e96decull, 0xae0c5e0f7b5d1449ull,
        0xa517e799c5c6e32full, 0xc1276908f843b688ull, 0xaf7e924d738d87ecull,
        0x1c3f3ba863d5c7d1ull},
       {0x1.619b57b5cacd1p-1, 0x1.47fa3bd4bc30cp-1, 0x1.bf0057d9914fcp-3, 0x1.11636b1646de7p-1,
        0x1.b2c9323ec8926p-2, 0x1.9918a1fb8aa6p-2, 0x1.ae6c5daf0fd38p-3, 0x1.6e5fcdc2d6df6p-1,
        0x1.e272f53e3b69ep-1, 0x1.8f92823fd547p-3, 0x1.d8c2d4dc8dd2dp-1, 0x1.5c18bc1ef6ba2p-1,
        0x1.4a2fcf338b8dcp-1, 0x1.824ed211f0876p-1, 0x1.5efd249ae71bp-1, 0x1.c3f3ba863d5cp-4},
       "0010001001000001",
       {8, 1, -2, 9, -3, 4, 2, 1, 4, -3, 0, 8, 8, 2, 8, 7},
       {1208, 910, 905, 802, 26, 227, 1598, 1118, 785, 596, 492, 1129, 311, 288, 956, 1353},
       {4, 5, 5, 0, 4, 1, 5, 2, 1, 6, 3, 4, 1, 3, 2, 3}},
      {20261019,
       {0x529b65ab2d750843ull, 0xdc4c3ff9f9647de3ull, 0x51fdedd6953568abull,
        0x8682a31a84c1981aull, 0x665d22c6229f4f7aull, 0xaa1b27d679b44708ull,
        0x3c988b777a96f2ecull, 0xddd6ce1b19a1ea96ull, 0x92d14a88a07d5150ull,
        0x1eeedecd54ff1411ull, 0xadd1bee9fd6fa626ull, 0xc5edf80787055754ull,
        0xfe529720926e62d5ull, 0xc9b3838e66071d3eull, 0x797e53040459c8c4ull,
        0x7c8d8034b6419190ull},
       {0x1.4a6d96acb5d42p-2, 0x1.b8987ff3f2c8fp-1, 0x1.47f7b75a54d5ap-2, 0x1.0d05463509833p-1,
        0x1.99748b188a7d2p-2, 0x1.54364facf3688p-1, 0x1.e4c45bbbd4b78p-3, 0x1.bbad9c363343dp-1,
        0x1.25a2951140faap-1, 0x1.eeedecd54ff1p-4, 0x1.5ba37dd3fadf4p-1, 0x1.8bdbf00f0e0aap-1,
        0x1.fca52e4124dccp-1, 0x1.9367071ccc0e3p-1, 0x1.e5f94c1011672p-2, 0x1.f23600d2d9064p-2},
       "1010001001000000",
       {4, 1, 0, 1, -2, 4, 2, 1, 7, 6, 9, 9, -3, 7, 7, 6},
       {371, 379, 1427, 986, 1586, 440, 500, 638, 216, 1521, 1718, 1780, 1581, 718, 868, 96},
       {4, 6, 5, 1, 2, 6, 0, 6, 3, 3, 2, 5, 0, 0, 3, 2}},
  };
  for (const Pin& p : pins) {
    Rng u64(p.seed), unit(p.seed), coin(p.seed), uniform(p.seed), big(p.seed), small(p.seed);
    std::string coins;
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(u64.NextU64(), p.next_u64[i]) << "seed " << p.seed << " draw " << i;
      EXPECT_EQ(unit.NextDouble(), p.next_double[i]) << "seed " << p.seed << " draw " << i;
      coins += coin.Bernoulli(0.35) ? '1' : '0';
      EXPECT_EQ(uniform.UniformInt(-3, 9), p.uniform_int[i]) << "seed " << p.seed << " draw " << i;
      EXPECT_EQ(big.Index(1800), p.index_1800[i]) << "seed " << p.seed << " draw " << i;
      EXPECT_EQ(small.Index(7), p.index_7[i]) << "seed " << p.seed << " draw " << i;
    }
    EXPECT_EQ(coins, p.bernoulli) << "seed " << p.seed;
  }
}

// The plain rejection loop: redraw while v >= UINT64_MAX - UINT64_MAX % span,
// then reduce. Counts the redraws in `rejected`.
uint64_t ReferenceBelow(Rng& rng, uint64_t span, int& rejected) {
  uint64_t limit = UINT64_MAX - (UINT64_MAX % span);
  uint64_t v = rng.NextU64();
  while (v >= limit) {
    ++rejected;
    v = rng.NextU64();
  }
  return v % span;
}

// Spans near the top of the 64-bit range, where a draw above
// UINT64_MAX - span takes the exact accept test: at 2^63 + 1 about half the
// draws do and nearly all of those are redrawn, at 3 * 2^62 three quarters do
// and a third of those are redrawn, and at SIZE_MAX all but a zero draw do.
TEST(RngTest, TopOfRangeDrawsMatchTheRejectionLoop) {
  const uint64_t spans[] = {(1ull << 63) + 1, 3ull << 62, SIZE_MAX};
  Rng rng(31);
  Rng ref(31);
  for (uint64_t span : spans) {
    int rejected = 0;
    const int64_t lo = INT64_MIN;
    const int64_t hi = static_cast<int64_t>(static_cast<uint64_t>(lo) + (span - 1));
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(rng.Index(span), ReferenceBelow(ref, span, rejected)) << span;
      int64_t expected =
          static_cast<int64_t>(static_cast<uint64_t>(lo) + ReferenceBelow(ref, span, rejected));
      ASSERT_EQ(rng.UniformInt(lo, hi), expected) << span;
    }
    if (span != SIZE_MAX) {
      EXPECT_GT(rejected, 400) << span;
    }
  }
  EXPECT_EQ(rng.NextU64(), ref.NextU64());  // Both streams drew equally often.
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
