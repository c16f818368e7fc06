#include "src/common/strings.h"

#include <cstdarg>
#include <cstdio>

namespace metis {

std::vector<std::string> SplitWords(std::string_view text, std::string_view delims) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find_first_of(delims, start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    if (end > start) {
      out.emplace_back(text.substr(start, end - start));
    }
    start = end + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out.append(sep);
    }
    out.append(parts[i]);
  }
  return out;
}

std::string ToLowerAscii(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(LowerAscii(c));
  }
  return out;
}

std::string_view StripPunct(std::string_view token) {
  auto is_punct = [](char c) {
    return c == '.' || c == ',' || c == '?' || c == '!' || c == ';' || c == ':' || c == '"' ||
           c == '\'' || c == '(' || c == ')' || c == '[' || c == ']';
  };
  while (!token.empty() && is_punct(token.front())) {
    token.remove_prefix(1);
  }
  while (!token.empty() && is_punct(token.back())) {
    token.remove_suffix(1);
  }
  return token;
}

bool Contains(std::string_view text, std::string_view needle) {
  return text.find(needle) != std::string_view::npos;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int size = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (size > 0) {
    out.resize(static_cast<size_t>(size));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace metis
