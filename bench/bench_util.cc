#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "src/common/check.h"
#include "src/vectordb/kernels.h"

namespace metis {

std::vector<FixedConfigScore> ScoreFixedConfigs(const Dataset& dataset, int sample_queries,
                                                const std::string& serving_model,
                                                uint64_t seed) {
  std::vector<FixedConfigScore> scores;
  int n = std::min<int>(sample_queries, static_cast<int>(dataset.queries().size()));
  for (const RagConfig& config : FixedConfigMenu(dataset.profile())) {
    FixedConfigScore score;
    score.config = config;
    for (int i = 0; i < n; ++i) {
      RagResult r = RunSingleQuery(dataset, dataset.queries()[static_cast<size_t>(i)], config,
                                   serving_model, seed);
      score.mean_f1 += r.f1;
      score.mean_delay += r.exec_delay();
    }
    score.mean_f1 /= n;
    score.mean_delay /= n;
    scores.push_back(score);
  }
  return scores;
}

RagConfig BestQualityFixed(const std::vector<FixedConfigScore>& scores) {
  // Highest mean F1, with a 1.5% tie tolerance resolved toward lower delay:
  // no practitioner deploys a config that is seconds slower for a quality
  // difference inside the noise floor.
  return ClosestQualityFixed(scores, 0.015);
}

RagConfig BestQualityFixedStrict(const std::vector<FixedConfigScore>& scores) {
  METIS_CHECK(!scores.empty());
  const FixedConfigScore* best = &scores[0];
  for (const auto& s : scores) {
    if (s.mean_f1 > best->mean_f1) {
      best = &s;
    }
  }
  return best->config;
}

RagConfig ClosestQualityFixed(const std::vector<FixedConfigScore>& scores, double tolerance) {
  METIS_CHECK(!scores.empty());
  double best_f1 = 0;
  for (const auto& s : scores) {
    best_f1 = std::max(best_f1, s.mean_f1);
  }
  const FixedConfigScore* pick = nullptr;
  for (const auto& s : scores) {
    if (s.mean_f1 >= best_f1 - tolerance &&
        (pick == nullptr || s.mean_delay < pick->mean_delay)) {
      pick = &s;
    }
  }
  METIS_CHECK(pick != nullptr);
  return pick->config;
}

RagConfig SimilarDelayFixed(const std::vector<FixedConfigScore>& scores, double target_delay) {
  METIS_CHECK(!scores.empty());
  const FixedConfigScore* pick = nullptr;
  double best_gap = std::numeric_limits<double>::max();
  for (const auto& s : scores) {
    double gap = std::abs(s.mean_delay - target_delay);
    if (gap < best_gap) {
      best_gap = gap;
      pick = &s;
    }
  }
  return pick->config;
}

void PrintShapeCheck(const std::string& claim, const std::string& measured, bool holds) {
  std::printf("  [%s] paper: %s | measured: %s\n", holds ? "SHAPE OK" : "SHAPE OFF",
              claim.c_str(), measured.c_str());
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
