// Tokenization for the synthetic corpus.
//
// The paper's pipeline counts tokens for chunking, memory sizing, and F1. We
// use word-level tokens: the synthetic vocabulary is built from word-like
// strings, so words == tokens keeps the whole pipeline self-consistent.
//
// The token rules live in ForEachToken alone: split on space, tab, CR and
// LF; strip StripPunct's characters from both ends; drop tokens that strip
// to nothing; ASCII-lowercase. Tokenize, the embedder and the BM25 index all
// read tokens through it.

#ifndef METIS_SRC_TEXT_TOKENIZER_H_
#define METIS_SRC_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/strings.h"

namespace metis {

// Calls visit(token) for each token of `text`, in order. `token` is a view
// into `text` with the split, strip and drop rules applied but its case kept:
// the caller applies the last rule, LowerAscii, to each byte it reads, so no
// token is copied.
template <typename Visit>
void ForEachToken(std::string_view text, Visit&& visit) {
  auto is_space = [](char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; };
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    std::string_view token = StripPunct(text.substr(start, i - start));
    if (!token.empty()) {
      visit(token);
    }
  }
}

// The tokens of `text` as lowercase strings.
std::vector<std::string> Tokenize(std::string_view text);

// Number of whitespace-separated words, punctuation-only ones included (so
// not always Tokenize's size): the token count prompts are sized by.
size_t CountTokens(std::string_view text);

}  // namespace metis

#endif  // METIS_SRC_TEXT_TOKENIZER_H_
