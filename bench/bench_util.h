// Shared helpers for the benchmark binaries.

#ifndef METIS_BENCH_BENCH_UTIL_H_
#define METIS_BENCH_BENCH_UTIL_H_

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace metis {

// Emits a one-line paper-vs-measured verdict under a table.
void PrintShapeCheck(const std::string& claim, const std::string& measured, bool holds);

// --- Paper-claim records -------------------------------------------------------
//
// One claim of the paper set against what a bench measured. The band is the
// range the paper quotes, edges included; a one-sided claim leaves one edge
// infinite. `null_value` is the value at which the claimed effect vanishes: 1
// for a ratio against a baseline, 0 for a gain or gap against one, and the
// band's edge for a claim with no baseline. It lies outside the band or on
// its edge. A claim that quotes no number records its condition as 0/1 with
// band [1, 1] and null 0.
struct PaperClaim {
  std::string figure;  // e.g. "fig10".
  std::string name;    // Record name, e.g. "fig10.delay_vs_adaptive"; never data-dependent.
  std::string claim;   // The claim as the bench prints it.
  double band_lo = -std::numeric_limits<double>::infinity();
  double band_hi = std::numeric_limits<double>::infinity();
  double null_value = 0;
  std::vector<double> measured;  // One value per dataset or arm; at least one.
  std::string measured_text;     // The measurement as the bench prints it.
};

// The ranks are what BENCH_paper.json records: a higher rank is a better
// verdict, and none is 0.
enum class ClaimVerdict { kContradicted = 1, kSameDirection = 2, kInBand = 3 };

// kInBand when every measured value lies in the band. Otherwise kContradicted
// when any value lies at the null or past it on the side away from the band,
// and kSameDirection when none does (each stray value lies past the band's
// far edge or between the null and the band). A null on the band's edge
// leaves no same-direction region on that side.
ClaimVerdict JudgeClaim(const PaperClaim& claim);
// "in band", "same direction" or "contradicted".
const char* ClaimVerdictName(ClaimVerdict verdict);

// --- Machine-readable benchmark output ---------------------------------------
//
// One record per measured configuration; WriteBenchJson serializes the lot to
// a JSON file ({"bench": ..., "records": [...]}) so CI and future PRs can
// track the perf trajectory without parsing console tables.
struct BenchJsonRecord {
  std::string name;  // Unique configuration label.
  std::vector<std::pair<std::string, std::string>> tags;     // e.g. {"impl", "flat"}.
  std::vector<std::pair<std::string, double>> metrics;       // e.g. {"qps", 1234.5}.
};
// `note` (optional) becomes a top-level "note" string in the envelope — the
// place to record the measurement host, since QPS baselines are only
// meaningful for the machine family that produced them.
void WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const std::vector<BenchJsonRecord>& records,
                    const std::string& note = "");

}  // namespace metis

#endif  // METIS_BENCH_BENCH_UTIL_H_
