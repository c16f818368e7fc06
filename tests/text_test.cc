// Unit tests for the text substrate: tokenizer and vocabulary.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/strings.h"
#include "src/text/tokenizer.h"
#include "src/text/vocabulary.h"

namespace metis {
namespace {

// The token rules as a chain of whole-string steps: split into words, strip
// punctuation, lowercase. ForEachToken and Tokenize must reproduce it.
std::vector<std::string> ReferenceTokens(std::string_view text) {
  std::vector<std::string> out;
  for (const std::string& raw : SplitWords(text)) {
    std::string_view stripped = StripPunct(raw);
    if (!stripped.empty()) {
      out.push_back(ToLowerAscii(stripped));
    }
  }
  return out;
}

std::vector<std::string> WalkerInputs() {
  return {
      "Hello, World!",
      "UPPER lower MiXeD CamelCase",
      "(edge) [brackets] \"quoted\" 'single' end. comma, semi; colon: bang! ask?",
      "\"(Nested.)\" ((deep))",
      "in.side don't a,b x(y)z q?r!s",
      "... !! ?? ;; ()[] '' \" . alpha ?!",
      "tab\tsep\r\nline\nfeed\rcr",
      "  runs   of    spaces  ",
      "   \t\n\r  ",
      "",
      "one",
      "Dash-ed under_score #hash @at 9.5% x/y",
      "vertical\vtab form\ffeed",
  };
}

TEST(TokenWalkerTest, MatchesSplitStripLowerRecipe) {
  for (const std::string& text : WalkerInputs()) {
    std::vector<std::string> walked;
    ForEachToken(text, [&](std::string_view token) {
      // A view into the text itself, not a copy.
      EXPECT_GE(token.data(), text.data());
      EXPECT_LE(token.data() + token.size(), text.data() + text.size());
      walked.push_back(ToLowerAscii(token));
    });
    std::vector<std::string> want = ReferenceTokens(text);
    EXPECT_EQ(walked, want) << "'" << text << "'";
    EXPECT_EQ(Tokenize(text), want) << "'" << text << "'";
  }
}

TEST(TokenizerTest, LowercasesAndStripsPunct) {
  auto toks = Tokenize("Hello, World!");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0], "hello");
  EXPECT_EQ(toks[1], "world");
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("   \t\n").empty());
  EXPECT_TRUE(Tokenize("...").empty());
}

TEST(TokenizerTest, CountTokensMatchesSplit) {
  std::string text = "one two  three\nfour\tfive";
  EXPECT_EQ(CountTokens(text), 5u);
  EXPECT_EQ(CountTokens(""), 0u);
  EXPECT_EQ(CountTokens("solo"), 1u);
}

TEST(VocabularyTest, GeneratesRequestedDistinctWords) {
  Vocabulary v(1, 500);
  EXPECT_EQ(v.size(), 500u);
  std::set<std::string> seen;
  for (size_t i = 0; i < v.size(); ++i) {
    seen.insert(v.word(i));
  }
  EXPECT_EQ(seen.size(), 500u);
}

TEST(VocabularyTest, DeterministicAcrossInstances) {
  Vocabulary a(77, 100);
  Vocabulary b(77, 100);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.word(i), b.word(i));
  }
}

TEST(VocabularyTest, SampleIsZipfSkewed) {
  Vocabulary v(5, 200);
  Rng rng(9);
  int first_word_hits = 0;
  for (int i = 0; i < 5000; ++i) {
    if (v.Sample(rng) == v.word(0)) {
      ++first_word_hits;
    }
  }
  // Rank 0 under Zipf(s~1.07, n=200) is far above uniform (25 hits).
  EXPECT_GT(first_word_hits, 200);
}

TEST(MakeWordTest, ProducesLowercaseAlpha) {
  Rng rng(123);
  for (int i = 0; i < 200; ++i) {
    std::string w = MakeWord(rng);
    EXPECT_FALSE(w.empty());
    for (char c : w) {
      EXPECT_TRUE(c >= 'a' && c <= 'z') << w;
    }
  }
}

}  // namespace
}  // namespace metis
