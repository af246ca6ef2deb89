#include "text/repair.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "text/tokenizer.h"

namespace coachlm {
namespace repair {
namespace {

TEST(RepairTest, FixKnownSpelling) {
  EXPECT_EQ(FixKnownSpelling("teh goverment recieve it"),
            "the government receive it");
  EXPECT_EQ(FixKnownSpelling("already clean"), "already clean");
}

TEST(RepairTest, CapitalizeSentences) {
  EXPECT_EQ(CapitalizeSentences("first. second! third? done"),
            "First. Second! Third? Done");
  EXPECT_EQ(CapitalizeSentences("line one\nline two"),
            "Line one\nLine two");
}

TEST(RepairTest, CapitalizeSkipsCodeFences) {
  const std::string code = "Intro:\n```python\ndef f():\n    return 1\n``` done";
  const std::string fixed = CapitalizeSentences(code);
  EXPECT_NE(fixed.find("def f()"), std::string::npos);
  EXPECT_EQ(fixed.find("Def f()"), std::string::npos);
}

TEST(RepairTest, CapitalizeSkipsListDigits) {
  EXPECT_EQ(CapitalizeSentences("1. item stays"), "1. item stays");
}

TEST(RepairTest, RemoveDoubledWords) {
  EXPECT_EQ(RemoveDoubledWords("the the cat sat sat down"),
            "the cat sat down");
  EXPECT_EQ(RemoveDoubledWords("no doubles here"), "no doubles here");
  // Single characters are never treated as doubles ("a a" could be valid).
  EXPECT_EQ(RemoveDoubledWords("a a b"), "a a b");
}

/// The copy-per-field formulation RemoveDoubledWords scans in place of:
/// tokenize, then drop a field of two or more bytes equal to the last kept
/// one.
std::string ReferenceRemoveDoubledWords(const std::string& text) {
  const std::vector<std::string> words = tokenizer::WhitespaceTokenize(text);
  std::string out;
  const std::string* prev = nullptr;
  for (const std::string& word : words) {
    if (prev != nullptr && word.size() > 1 && word == *prev) continue;
    if (!out.empty()) out += ' ';
    out += word;
    prev = &word;
  }
  return out;
}

TEST(RepairTest, RemoveDoubledWordsAcrossWhitespaceKinds) {
  const struct {
    const char* text;
    const char* expected;
  } cases[] = {
      // Newlines and tabs separate fields like spaces, and flatten.
      {"the\nthe cat", "the cat"},
      {"sat\tsat\tdown\n", "sat down"},
      {"line one\n\nline line two", "line one line two"},
      {" \t\n", ""},
      {"", ""},
      // One-character doubles are kept, whatever separates them.
      {"a a a", "a a a"},
      {"I\tI think", "I I think"},
      {"x\n\nx", "x x"},
      // Runs collapse to one; comparison is exact bytes.
      {"go go go", "go"},
      {"Hello hello", "Hello hello"},
      {"end. end.", "end."},
      {"  padded  padded  ", "padded"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(RemoveDoubledWords(c.text), c.expected) << c.text;
    EXPECT_EQ(RemoveDoubledWords(c.text), ReferenceRemoveDoubledWords(c.text))
        << c.text;
  }
}

TEST(RepairTest, ReflowLists) {
  EXPECT_EQ(ReflowLists("Items: - one - two"), "Items:\n- one\n- two");
  EXPECT_EQ(ReflowLists("Steps: 1. go 2. stop"), "Steps:\n1. go\n2. stop");
}

TEST(RepairTest, CollapseSpacesKeepsNewlines) {
  EXPECT_EQ(CollapseSpaces("a  b   c"), "a b c");
  EXPECT_EQ(CollapseSpaces("a\n\nb"), "a\n\nb");
}

}  // namespace
}  // namespace repair
}  // namespace coachlm
