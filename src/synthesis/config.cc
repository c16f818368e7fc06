#include "src/synthesis/config.h"

#include "src/common/strings.h"

namespace metis {

const char* SynthesisMethodName(SynthesisMethod m) {
  switch (m) {
    case SynthesisMethod::kMapRerank:
      return "map_rerank";
    case SynthesisMethod::kStuff:
      return "stuff";
    case SynthesisMethod::kMapReduce:
      return "map_reduce";
  }
  return "unknown";
}

std::string RagConfigToString(const RagConfig& config) {
  if (config.method == SynthesisMethod::kMapReduce) {
    return StrFormat("%s(k=%d,L=%d)", SynthesisMethodName(config.method), config.num_chunks,
                     config.intermediate_tokens);
  }
  return StrFormat("%s(k=%d)", SynthesisMethodName(config.method), config.num_chunks);
}

}  // namespace metis
