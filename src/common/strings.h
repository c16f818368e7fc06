// Small string helpers shared across modules.

#ifndef METIS_SRC_COMMON_STRINGS_H_
#define METIS_SRC_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace metis {

// Splits on any run of the given delimiter characters; drops empty pieces.
std::vector<std::string> SplitWords(std::string_view text, std::string_view delims = " \t\n\r");

// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// ASCII lowercase of one byte (sufficient for the synthetic corpus vocabulary).
inline char LowerAscii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

// ASCII lowercase copy.
std::string ToLowerAscii(std::string_view s);

// Strips ASCII punctuation from both ends of a token.
std::string_view StripPunct(std::string_view token);

// True if `text` contains `needle` as a substring (case-sensitive).
bool Contains(std::string_view text, std::string_view needle);

// printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace metis

#endif  // METIS_SRC_COMMON_STRINGS_H_
