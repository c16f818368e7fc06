// Rule-based mapping from query profiles to pruned configuration spaces
// (paper §4.2, Algorithm 1).
//
// The mapping converts the profiler's four estimates into a small range of
// RAG configurations that should all yield high quality — shrinking the
// combinatorial knob space by 50-100x so the joint scheduler can afford to
// enumerate it. The rules, verbatim from Algorithm 1:
//
//   if not joint-reasoning:       synthesis = { map_rerank }
//   elif complexity is low:       synthesis = { stuff }
//   else:                         synthesis = { stuff, map_reduce }
//   num_chunks  in [pieces, 3 * pieces]
//   intermediate_length in the profiler's summary range

#ifndef METIS_SRC_CORE_MAPPING_H_
#define METIS_SRC_CORE_MAPPING_H_

#include <vector>

#include "src/profiler/profiler.h"
#include "src/synthesis/config.h"

namespace metis {

struct PrunedConfigSpace {
  std::vector<SynthesisMethod> methods;
  int min_chunks = 1;
  int max_chunks = 3;
  int min_intermediate = 30;
  int max_intermediate = 60;

  bool Contains(const RagConfig& config) const;
  // Number of distinct configurations in the space (chunk values are
  // enumerated exactly; intermediate lengths with the standard stride).
  size_t ApproximateSize(int intermediate_stride = 10) const;
  // The typical space of a window of recent queries: methods are unioned,
  // numeric bounds averaged. This is what the §5 low-confidence fallback
  // uses — the average right-sizes the space, where a pure union would
  // over-provision every rescued query.
  static PrunedConfigSpace AverageOf(const std::vector<PrunedConfigSpace>& spaces);
};

// Algorithm 1. `max_available_chunks` caps num_chunks to the database size.
PrunedConfigSpace RuleBasedMapping(const QueryProfile& profile, int max_available_chunks = 64);

// Size of the unpruned knob grid the paper quotes (for the 50-100x claim):
// all three methods x chunk counts up to `max_chunks` x intermediate lengths.
size_t FullConfigSpaceSize(int max_chunks = 30, int intermediate_values = 50);

}  // namespace metis

#endif  // METIS_SRC_CORE_MAPPING_H_
