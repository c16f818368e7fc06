#include "src/text/tokenizer.h"

#include "src/common/strings.h"

namespace metis {

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> out;
  ForEachToken(text, [&out](std::string_view token) { out.push_back(ToLowerAscii(token)); });
  return out;
}

size_t CountTokens(std::string_view text) {
  size_t n = 0;
  bool in_token = false;
  for (char c : text) {
    bool ws = (c == ' ' || c == '\t' || c == '\n' || c == '\r');
    if (!ws && !in_token) {
      ++n;
      in_token = true;
    } else if (ws) {
      in_token = false;
    }
  }
  return n;
}

}  // namespace metis
