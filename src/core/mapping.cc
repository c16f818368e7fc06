#include "src/core/mapping.h"

#include <algorithm>

#include "src/common/check.h"

namespace metis {

bool PrunedConfigSpace::Contains(const RagConfig& config) const {
  bool method_ok = std::find(methods.begin(), methods.end(), config.method) != methods.end();
  if (!method_ok) {
    return false;
  }
  if (config.num_chunks < min_chunks || config.num_chunks > max_chunks) {
    return false;
  }
  if (config.method == SynthesisMethod::kMapReduce &&
      (config.intermediate_tokens < min_intermediate ||
       config.intermediate_tokens > max_intermediate)) {
    return false;
  }
  return true;
}

size_t PrunedConfigSpace::ApproximateSize(int intermediate_stride) const {
  METIS_CHECK_GT(intermediate_stride, 0);
  size_t chunk_values = static_cast<size_t>(std::max(0, max_chunks - min_chunks + 1));
  size_t total = 0;
  for (SynthesisMethod m : methods) {
    if (m == SynthesisMethod::kMapReduce) {
      size_t interm_values = static_cast<size_t>(
          std::max(0, (max_intermediate - min_intermediate) / intermediate_stride + 1));
      total += chunk_values * interm_values;
    } else {
      total += chunk_values;
    }
  }
  return total;
}

PrunedConfigSpace PrunedConfigSpace::AverageOf(const std::vector<PrunedConfigSpace>& spaces) {
  METIS_CHECK(!spaces.empty());
  PrunedConfigSpace out = spaces[0];
  double min_c = 0, max_c = 0, min_i = 0, max_i = 0;
  for (const auto& s : spaces) {
    for (SynthesisMethod m : s.methods) {
      if (std::find(out.methods.begin(), out.methods.end(), m) == out.methods.end()) {
        out.methods.push_back(m);
      }
    }
    min_c += s.min_chunks;
    max_c += s.max_chunks;
    min_i += s.min_intermediate;
    max_i += s.max_intermediate;
  }
  double n = static_cast<double>(spaces.size());
  out.min_chunks = static_cast<int>(min_c / n + 0.5);
  out.max_chunks = static_cast<int>(max_c / n + 0.5);
  out.min_intermediate = static_cast<int>(min_i / n + 0.5);
  out.max_intermediate = static_cast<int>(max_i / n + 0.5);
  return out;
}

PrunedConfigSpace RuleBasedMapping(const QueryProfile& profile, int max_available_chunks) {
  PrunedConfigSpace space;
  if (!profile.requires_joint) {
    space.methods = {SynthesisMethod::kMapRerank};
  } else if (!profile.high_complexity) {
    space.methods = {SynthesisMethod::kStuff};
  } else {
    space.methods = {SynthesisMethod::kStuff, SynthesisMethod::kMapReduce};
  }
  // num_chunks in [n, 3n]: headroom for imperfect retrieval (a typical RAG
  // retriever over-fetches 2-3x, §4.2) and room for the scheduler to flex.
  int n = std::max(1, profile.num_info_pieces);
  space.min_chunks = std::min(n, max_available_chunks);
  space.max_chunks = std::min(3 * n, max_available_chunks);
  space.min_intermediate = profile.summary_min_tokens;
  space.max_intermediate = profile.summary_max_tokens;
  return space;
}

size_t FullConfigSpaceSize(int max_chunks, int intermediate_values) {
  // map_rerank and stuff vary only chunks; map_reduce varies both knobs.
  return static_cast<size_t>(max_chunks) * 2 +
         static_cast<size_t>(max_chunks) * static_cast<size_t>(intermediate_values);
}

}  // namespace metis
