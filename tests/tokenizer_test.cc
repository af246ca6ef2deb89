#include "text/tokenizer.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace coachlm {
namespace tokenizer {
namespace {

TEST(TokenizerTest, WhitespaceTokenize) {
  EXPECT_EQ(WhitespaceTokenize("a  b\tc\nd"),
            (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_TRUE(WhitespaceTokenize("").empty());
}

TEST(TokenizerTest, WordTokenizeSeparatesPunctuation) {
  EXPECT_EQ(WordTokenize("Hello, world!"),
            (std::vector<std::string>{"Hello", ",", "world", "!"}));
}

TEST(TokenizerTest, WordTokenizeKeepsHyphensAndApostrophes) {
  const auto tokens = WordTokenize("state-of-the-art isn't bad");
  EXPECT_EQ(tokens[0], "state-of-the-art");
  EXPECT_EQ(tokens[1], "isn't");
}

TEST(TokenizerTest, WordTokenizeLeadingPunct) {
  EXPECT_EQ(WordTokenize("(note)"),
            (std::vector<std::string>{"(", "note", ")"}));
}

TEST(TokenizerTest, IsPunctuation) {
  EXPECT_TRUE(IsPunctuation("."));
  EXPECT_TRUE(IsPunctuation("!?"));
  EXPECT_FALSE(IsPunctuation("a."));
  EXPECT_FALSE(IsPunctuation(""));
}

TEST(TokenizerTest, DetokenizeReattachesPunctuation) {
  EXPECT_EQ(Detokenize({"Hello", ",", "world", "!"}), "Hello, world!");
  EXPECT_EQ(Detokenize({"(", "note", ")"}), "(note)");
  EXPECT_EQ(Detokenize({}), "");
}

TEST(TokenizerTest, TokenizeDetokenizeStableOnPlainProse) {
  const std::string text = "The quick fox jumps, runs, and rests.";
  EXPECT_EQ(Detokenize(WordTokenize(text)), text);
}

TEST(TokenizerTest, SplitSentencesOnTerminators) {
  const auto s = SplitSentences("One. Two! Three? Four");
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0], "One.");
  EXPECT_EQ(s[1], "Two!");
  EXPECT_EQ(s[2], "Three?");
  EXPECT_EQ(s[3], "Four");
}

TEST(TokenizerTest, SplitSentencesOnNewlines) {
  const auto s = SplitSentences("Header:\n- item one\n- item two");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], "Header:");
  EXPECT_EQ(s[1], "- item one");
}

TEST(TokenizerTest, SplitSentencesKeepsDecimals) {
  const auto s = SplitSentences("Pi is 3.14 about.");
  ASSERT_EQ(s.size(), 1u);
}

TEST(TokenizerTest, SplitSentencesEmpty) {
  EXPECT_TRUE(SplitSentences("").empty());
  EXPECT_TRUE(SplitSentences("   ").empty());
}

TEST(TokenizerTest, WordCoreIsNeverAllPunctuation) {
  // Every field of up to five bytes over an alphabet of punctuation (the
  // kept hyphen, the numeric period, brackets), a digit and a letter: a
  // non-empty core always keeps a non-punctuation byte, which is why the
  // content-word scanner needs no all-punctuation check.
  const std::string alphabet = "-.!(')1a";
  std::string field;
  size_t cores = 0;
  const auto visit = [&](auto&& self, size_t depth) -> void {
    const std::string_view core = WordCore(field);
    if (!core.empty()) {
      ++cores;
      EXPECT_FALSE(IsPunctuation(core)) << field;
    }
    if (depth == 5) return;
    for (const char c : alphabet) {
      field.push_back(c);
      self(self, depth + 1);
      field.pop_back();
    }
  };
  visit(visit, 0);
  EXPECT_GT(cores, 0u);
}

}  // namespace
}  // namespace tokenizer
}  // namespace coachlm
