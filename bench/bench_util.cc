#include "bench/bench_util.h"

#include <cmath>
#include <cstdio>

#include "src/common/check.h"
#include "src/vectordb/kernels.h"

namespace metis {

void PrintShapeCheck(const std::string& claim, const std::string& measured, bool holds) {
  std::printf("  [%s] paper: %s | measured: %s\n", holds ? "SHAPE OK" : "SHAPE OFF",
              claim.c_str(), measured.c_str());
}

ClaimVerdict JudgeClaim(const PaperClaim& claim) {
  METIS_CHECK(!claim.measured.empty());
  METIS_CHECK_LE(claim.band_lo, claim.band_hi);
  // The band lies on one side of the null, or starts at it.
  bool band_above_null = claim.band_lo >= claim.null_value;
  METIS_CHECK(band_above_null || claim.band_hi <= claim.null_value);
  ClaimVerdict verdict = ClaimVerdict::kInBand;
  for (double v : claim.measured) {
    METIS_CHECK(!std::isnan(v));
    if (v >= claim.band_lo && v <= claim.band_hi) {
      continue;
    }
    if (band_above_null ? v <= claim.null_value : v >= claim.null_value) {
      return ClaimVerdict::kContradicted;
    }
    verdict = ClaimVerdict::kSameDirection;
  }
  return verdict;
}

const char* ClaimVerdictName(ClaimVerdict verdict) {
  static const char* const kNames[] = {"", "contradicted", "same direction", "in band"};
  return kNames[static_cast<int>(verdict)];
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void WriteBenchJson(const std::string& path, const std::string& bench_name,
                    const std::vector<BenchJsonRecord>& records, const std::string& note) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  METIS_CHECK(f != nullptr);
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", JsonEscape(bench_name).c_str());
  // Every bench JSON records which SIMD dispatch target produced it: two
  // results are only comparable when it matches, and a regression hunt needs
  // to rule out "different host kernel" first.
  std::string host_note = note.empty() ? "" : note + " | ";
  host_note += "kernel=";
  host_note += KernelTargetName(ActiveKernelTarget());
  std::fprintf(f, "  \"note\": \"%s\",\n", JsonEscape(host_note).c_str());
  std::fprintf(f, "  \"records\": [\n");
  for (size_t r = 0; r < records.size(); ++r) {
    const BenchJsonRecord& rec = records[r];
    std::fprintf(f, "    {\"name\": \"%s\"", JsonEscape(rec.name).c_str());
    for (const auto& [key, value] : rec.tags) {
      std::fprintf(f, ", \"%s\": \"%s\"", JsonEscape(key).c_str(), JsonEscape(value).c_str());
    }
    for (const auto& [key, value] : rec.metrics) {
      std::fprintf(f, ", \"%s\": %.6g", JsonEscape(key).c_str(), value);
    }
    std::fprintf(f, "}%s\n", r + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace metis
