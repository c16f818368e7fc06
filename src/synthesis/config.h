// RAG configuration types (the paper's three knobs, Fig. 2).

#ifndef METIS_SRC_SYNTHESIS_CONFIG_H_
#define METIS_SRC_SYNTHESIS_CONFIG_H_

#include <string>

namespace metis {

// Knob 2: how retrieved chunks are synthesized into the LLM input (Fig. 3).
enum class SynthesisMethod {
  kMapRerank,  // Answer from each chunk separately; keep the most confident.
  kStuff,      // Concatenate all chunks into one prompt.
  kMapReduce,  // Summarize each chunk, then answer over the summaries.
};

const char* SynthesisMethodName(SynthesisMethod m);

// A fully-specified RAG configuration for one query.
struct RagConfig {
  SynthesisMethod method = SynthesisMethod::kStuff;
  int num_chunks = 5;            // Knob 1.
  int intermediate_tokens = 50;  // Knob 3 (map_reduce only).

  bool operator==(const RagConfig& other) const {
    return method == other.method && num_chunks == other.num_chunks &&
           intermediate_tokens == other.intermediate_tokens;
  }
  bool operator!=(const RagConfig& other) const { return !(*this == other); }
};

std::string RagConfigToString(const RagConfig& config);

}  // namespace metis

#endif  // METIS_SRC_SYNTHESIS_CONFIG_H_
