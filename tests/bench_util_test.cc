// Unit tests for the paper-claim verdict rule (bench/bench_util.h).

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

namespace metis {
namespace {

constexpr double kOpen = std::numeric_limits<double>::infinity();

ClaimVerdict Judge(double lo, double hi, double null_value, std::vector<double> measured) {
  PaperClaim claim;
  claim.band_lo = lo;
  claim.band_hi = hi;
  claim.null_value = null_value;
  claim.measured = std::move(measured);
  return JudgeClaim(claim);
}

// A ratio against a baseline: band [1.64, 2.54] above the null 1.
TEST(JudgeClaimTest, EdgesAreInBand) {
  EXPECT_EQ(Judge(1.64, 2.54, 1, {1.64}), ClaimVerdict::kInBand);
  EXPECT_EQ(Judge(1.64, 2.54, 1, {2.54}), ClaimVerdict::kInBand);
  EXPECT_EQ(Judge(1.64, 2.54, 1, {2.0}), ClaimVerdict::kInBand);
}

TEST(JudgeClaimTest, BeyondTheBandAwayFromTheNullIsSameDirection) {
  EXPECT_EQ(Judge(1.64, 2.54, 1, {3.22}), ClaimVerdict::kSameDirection);
  // Band below its null: past the low edge is away from the null.
  EXPECT_EQ(Judge(0.03, 0.06, 0.06, {0.018}), ClaimVerdict::kSameDirection);
}

TEST(JudgeClaimTest, BetweenTheNullAndTheBandIsSameDirection) {
  EXPECT_EQ(Judge(1.64, 2.54, 1, {1.2}), ClaimVerdict::kSameDirection);
  EXPECT_EQ(Judge(4, 6, 0, {0.6}), ClaimVerdict::kSameDirection);
  EXPECT_EQ(Judge(0.03, 0.06, 0.1, {0.08}), ClaimVerdict::kSameDirection);
}

TEST(JudgeClaimTest, AtOrPastTheNullIsContradicted) {
  EXPECT_EQ(Judge(1.64, 2.54, 1, {1.0}), ClaimVerdict::kContradicted);
  EXPECT_EQ(Judge(1.64, 2.54, 1, {0.5}), ClaimVerdict::kContradicted);
  EXPECT_EQ(Judge(4, 6, 0, {-0.1}), ClaimVerdict::kContradicted);
  EXPECT_EQ(Judge(0.03, 0.06, 0.1, {0.1}), ClaimVerdict::kContradicted);
  EXPECT_EQ(Judge(0.03, 0.06, 0.1, {0.2}), ClaimVerdict::kContradicted);
}

TEST(JudgeClaimTest, OneSidedBands) {
  // ">= 10% loss" against a null of 0.
  EXPECT_EQ(Judge(10, kOpen, 0, {29.5}), ClaimVerdict::kInBand);
  EXPECT_EQ(Judge(10, kOpen, 0, {5}), ClaimVerdict::kSameDirection);
  EXPECT_EQ(Judge(10, kOpen, 0, {0}), ClaimVerdict::kContradicted);
  // "at most 0.11" against a null of 0.5.
  EXPECT_EQ(Judge(-kOpen, 0.11, 0.5, {0.02}), ClaimVerdict::kInBand);
  EXPECT_EQ(Judge(-kOpen, 0.11, 0.5, {0.3}), ClaimVerdict::kSameDirection);
  EXPECT_EQ(Judge(-kOpen, 0.11, 0.5, {0.6}), ClaimVerdict::kContradicted);
}

TEST(JudgeClaimTest, NullOnTheBandEdgeLeavesNoSameDirectionRegion) {
  // ">= 93%" with no baseline: the null is the edge itself.
  EXPECT_EQ(Judge(93, kOpen, 93, {93}), ClaimVerdict::kInBand);
  EXPECT_EQ(Judge(93, kOpen, 93, {99}), ClaimVerdict::kInBand);
  EXPECT_EQ(Judge(93, kOpen, 93, {92.9}), ClaimVerdict::kContradicted);
  // A parity condition: F1 gap >= -0.05, tolerance as edge and null.
  EXPECT_EQ(Judge(-0.05, kOpen, -0.05, {-0.05}), ClaimVerdict::kInBand);
  EXPECT_EQ(Judge(-0.05, kOpen, -0.05, {-0.06}), ClaimVerdict::kContradicted);
  // A two-sided band whose lower edge is the null.
  EXPECT_EQ(Judge(85, 90, 85, {79.4}), ClaimVerdict::kContradicted);
  EXPECT_EQ(Judge(85, 90, 85, {95}), ClaimVerdict::kSameDirection);
}

TEST(JudgeClaimTest, SeveralValuesTakeTheWorstVerdict) {
  EXPECT_EQ(Judge(1.64, 2.54, 1, {2.0, 2.5, 1.7}), ClaimVerdict::kInBand);
  EXPECT_EQ(Judge(1.64, 2.54, 1, {2.0, 3.22, 1.7}), ClaimVerdict::kSameDirection);
  EXPECT_EQ(Judge(1.64, 2.54, 1, {2.0, 3.22, 0.5}), ClaimVerdict::kContradicted);
  EXPECT_EQ(Judge(1.8, 4.5, 1, {1.0, 1.33, 4.0}), ClaimVerdict::kContradicted);
}

TEST(JudgeClaimTest, QualitativeClaimIsZeroOrOne) {
  EXPECT_EQ(Judge(1, 1, 0, {1}), ClaimVerdict::kInBand);
  EXPECT_EQ(Judge(1, 1, 0, {0}), ClaimVerdict::kContradicted);
}

TEST(JudgeClaimTest, VerdictNamesAndRanks) {
  EXPECT_STREQ(ClaimVerdictName(ClaimVerdict::kInBand), "in band");
  EXPECT_STREQ(ClaimVerdictName(ClaimVerdict::kSameDirection), "same direction");
  EXPECT_STREQ(ClaimVerdictName(ClaimVerdict::kContradicted), "contradicted");
  // BENCH_paper.json gates these ranks, and the regression checker skips a
  // baseline value <= 0.
  EXPECT_EQ(static_cast<int>(ClaimVerdict::kContradicted), 1);
  EXPECT_EQ(static_cast<int>(ClaimVerdict::kSameDirection), 2);
  EXPECT_EQ(static_cast<int>(ClaimVerdict::kInBand), 3);
}

}  // namespace
}  // namespace metis
