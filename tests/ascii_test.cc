#include "text/ascii.h"

#include <gtest/gtest.h>

#include <cctype>
#include <clocale>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "text/repair.h"
#include "text/string_util.h"
#include "text/tokenizer.h"

// The byte-class table against <cctype> in the C locale, and the text
// scanners built on it against their <cctype> formulations on seeded
// random byte strings (bytes >= 0x80, \v and \f, code fences and "1."
// list markers included).

namespace coachlm {
namespace {

int Byte(char c) { return static_cast<unsigned char>(c); }

/// The <cctype> formulations the table replaced.
namespace libc {

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(Byte(c)));
  return out;
}

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(Byte(s[begin]))) ++begin;
  while (end > begin && std::isspace(Byte(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

size_t CountWords(const std::string& s) {
  size_t count = 0;
  bool in_word = false;
  for (char c : s) {
    const bool space = std::isspace(Byte(c)) != 0;
    if (!space && !in_word) ++count;
    in_word = !space;
  }
  return count;
}

std::vector<std::string> Fields(const std::string& text) {
  std::vector<std::string> fields;
  size_t i = 0;
  while (true) {
    while (i < text.size() && std::isspace(Byte(text[i]))) ++i;
    if (i == text.size()) return fields;
    const size_t begin = i;
    while (i < text.size() && !std::isspace(Byte(text[i]))) ++i;
    fields.push_back(text.substr(begin, i - begin));
  }
}

std::string WordCore(const std::string& field) {
  size_t begin = 0;
  while (begin < field.size() && std::ispunct(Byte(field[begin])) &&
         field[begin] != '-') {
    ++begin;
  }
  size_t end = field.size();
  while (end > begin && std::ispunct(Byte(field[end - 1])) &&
         !(end >= 2 && std::isdigit(Byte(field[end - 2])) &&
           field[end - 1] == '.' && end != field.size())) {
    --end;
  }
  return field.substr(begin, end - begin);
}

std::string CapitalizeSentences(const std::string& text) {
  std::string out = text;
  bool at_start = true;
  bool in_code_fence = false;
  for (size_t i = 0; i < out.size(); ++i) {
    const int c = Byte(out[i]);
    if (c == '`' && i + 2 < out.size() && out[i + 1] == '`' &&
        out[i + 2] == '`') {
      in_code_fence = !in_code_fence;
      i += 2;
      at_start = false;
      continue;
    }
    if (in_code_fence) continue;
    if (at_start && std::isalpha(c)) {
      out[i] = static_cast<char>(std::toupper(c));
      at_start = false;
    } else if (std::isdigit(c)) {
      at_start = false;
      if (i + 1 < out.size() && out[i + 1] == '.') ++i;
    } else if (c == '.' || c == '!' || c == '?' || c == '\n') {
      at_start = true;
    } else if (!std::isspace(c) && c != '"' && c != '\'' && c != '(' &&
               c != '-') {
      at_start = false;
    }
  }
  return out;
}

}  // namespace libc

/// A random text mixing prose bytes, every kind of whitespace, sentence
/// punctuation, code fences, "1." markers and bytes >= 0x80.
std::string RandomText(Rng* rng) {
  static const std::vector<std::string> kPieces = {
      " ",    "\t",   "\n",   "\v",   "\f",   "\r",     "  ",
      "a",    "B",    "z",    "Q",    "word", "Hello",  "3.14",
      "1.",   "2. ",  ".",    "!",    "?",    ",",      "\"",
      "'",    "(",    ")",    "-",    "```",  "``",     "`",
      "@@ ",  "0",    "9",    "[x]",  "\x80", "\xc3\xa9", "\xff",
      "\xa0", "\x85", "\x1f", "\x7f"};
  std::string text;
  const size_t pieces = rng->NextBelow(40);
  for (size_t i = 0; i < pieces; ++i) {
    if (rng->NextBool(0.1)) {
      text += static_cast<char>(rng->NextBelow(256));
    } else {
      text += kPieces[rng->NextBelow(kPieces.size())];
    }
  }
  return text;
}

class AsciiTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_NE(std::setlocale(LC_ALL, "C"), nullptr); }
};

TEST_F(AsciiTest, ClassesMatchTheCLocaleForEveryByte) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    SCOPED_TRACE(b);
    EXPECT_EQ(ascii::IsSpace(c), std::isspace(b) != 0);
    EXPECT_EQ(ascii::IsAlpha(c), std::isalpha(b) != 0);
    EXPECT_EQ(ascii::IsDigit(c), std::isdigit(b) != 0);
    EXPECT_EQ(ascii::IsPunct(c), std::ispunct(b) != 0);
    EXPECT_EQ(ascii::IsAlpha(c) || ascii::IsDigit(c), std::isalnum(b) != 0);
    EXPECT_EQ(ascii::IsAlpha(c) && !ascii::IsLower(c), std::isupper(b) != 0);
    EXPECT_EQ(ascii::IsLower(c), std::islower(b) != 0);
    EXPECT_EQ(Byte(ascii::ToLower(c)), std::tolower(b));
    EXPECT_EQ(Byte(ascii::ToUpper(c)), std::toupper(b));
  }
}

TEST_F(AsciiTest, HighBytesHaveNoClass) {
  for (int b = 0x80; b < 256; ++b) {
    EXPECT_EQ(ascii::ClassOf(static_cast<char>(b)), 0) << b;
  }
}

TEST_F(AsciiTest, ScannersMatchTheirLibcFormulations) {
  Rng rng(20240419);
  for (int trial = 0; trial < 4000; ++trial) {
    const std::string text = RandomText(&rng);
    SCOPED_TRACE(testing::PrintToString(text));
    EXPECT_EQ(strings::Lower(text), libc::Lower(text));
    EXPECT_EQ(strings::Trim(text), libc::Trim(text));
    EXPECT_EQ(strings::TrimView(text), libc::Trim(text));
    EXPECT_EQ(strings::IsBlank(text), libc::Trim(text).empty());
    EXPECT_EQ(strings::CountWords(text), libc::CountWords(text));
    EXPECT_EQ(repair::CapitalizeSentences(text),
              libc::CapitalizeSentences(text));

    std::vector<std::string> fields;
    tokenizer::ForEachField(text, [&fields](std::string_view field) {
      fields.emplace_back(field);
    });
    ASSERT_EQ(fields, libc::Fields(text));
    for (const std::string& field : fields) {
      EXPECT_EQ(tokenizer::WordCore(field), libc::WordCore(field));
    }
  }
}

TEST_F(AsciiTest, WordCountsAddAcrossALeadingSpace) {
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string a = RandomText(&rng);
    std::string b = RandomText(&rng);
    if (!b.empty() && !ascii::IsSpace(b.front())) b.insert(0, " ");
    EXPECT_EQ(strings::CountWords(a + b),
              strings::CountWords(a) + strings::CountWords(b))
        << testing::PrintToString(a) << " + " << testing::PrintToString(b);
  }
  // Without the leading space the last word of a and the first of b join.
  EXPECT_EQ(strings::CountWords("one two") + strings::CountWords("three"), 3u);
  EXPECT_EQ(strings::CountWords("one twothree"), 2u);
}

TEST_F(AsciiTest, EqualsIgnoreCaseLowersOnlyAsciiLetters) {
  EXPECT_TRUE(strings::EqualsIgnoreCase("What IS this?", "what is THIS?"));
  EXPECT_FALSE(strings::EqualsIgnoreCase("abc", "abcd"));
  EXPECT_FALSE(strings::EqualsIgnoreCase("a b", "a\tb"));
  EXPECT_FALSE(strings::EqualsIgnoreCase("\xc3\xa9", "\xc3\x89"));
  EXPECT_TRUE(strings::EqualsIgnoreCase("", ""));
}

}  // namespace
}  // namespace coachlm
