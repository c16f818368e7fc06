#include "src/text/vocabulary.h"

#include <unordered_set>

#include "src/common/check.h"

namespace metis {

namespace {

constexpr const char* kOnsets[] = {"b",  "c",  "d",  "f",  "g",  "h",  "j",  "k", "l",
                                   "m",  "n",  "p",  "r",  "s",  "t",  "v",  "w", "z",
                                   "br", "cl", "dr", "fl", "gr", "pl", "st", "tr"};
constexpr const char* kVowels[] = {"a", "e", "i", "o", "u", "ai", "ea", "ou"};
constexpr const char* kCodas[] = {"", "n", "r", "s", "t", "l", "m", "nd", "rk", "st"};

}  // namespace

std::string MakeWord(Rng& rng) {
  int syllables = static_cast<int>(rng.UniformInt(2, 4));
  std::string w;
  for (int i = 0; i < syllables; ++i) {
    w += kOnsets[rng.Index(std::size(kOnsets))];
    w += kVowels[rng.Index(std::size(kVowels))];
    if (i + 1 == syllables) {
      w += kCodas[rng.Index(std::size(kCodas))];
    }
  }
  return w;
}

Vocabulary::Vocabulary(uint64_t seed, size_t size) {
  METIS_CHECK_GT(size, 0u);
  Rng rng(seed);
  std::unordered_set<std::string> seen;
  words_.reserve(size);
  while (words_.size() < size) {
    std::string w = MakeWord(rng);
    if (seen.insert(w).second) {
      words_.push_back(std::move(w));
    }
  }
}

const std::string& Vocabulary::Sample(Rng& rng) const {
  return words_[static_cast<size_t>(rng.Zipf(static_cast<int>(words_.size()), 1.07))];
}

}  // namespace metis
