// Deterministic synthetic vocabulary.
//
// The workload generator needs word material with two properties: (1) topical
// words shared between a query and the chunk that answers it, so embedding
// retrieval genuinely works; and (2) filler words that act as noise. Words are
// pseudo-English syllable strings generated from a seeded stream, so corpora
// are reproducible and tokenizer-stable.

#ifndef METIS_SRC_TEXT_VOCABULARY_H_
#define METIS_SRC_TEXT_VOCABULARY_H_

#include <string>
#include <vector>

#include "src/common/rng.h"

namespace metis {

class Vocabulary {
 public:
  // Builds `size` distinct words from the given seed.
  Vocabulary(uint64_t seed, size_t size);

  const std::string& word(size_t i) const { return words_[i % words_.size()]; }
  size_t size() const { return words_.size(); }

  // Samples a word (Zipf-weighted so common fillers repeat, like real text).
  const std::string& Sample(Rng& rng) const;

 private:
  std::vector<std::string> words_;
};

// Generates one pseudo-word from an RNG (2-4 syllables).
std::string MakeWord(Rng& rng);

}  // namespace metis

#endif  // METIS_SRC_TEXT_VOCABULARY_H_
