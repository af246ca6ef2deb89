#include "text/similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "text/lexicons.h"
#include "text/string_util.h"
#include "text/tokenizer.h"

namespace coachlm {
namespace similarity {
namespace {

TEST(SimilarityTest, ContentWordsDropStopwordsAndShortTokens) {
  EXPECT_EQ(SortedContentWords("The cat sat on a big mat."),
            (std::vector<std::string>{"big", "cat", "mat", "sat"}));
}

TEST(SimilarityTest, OverlapIdenticalIsOne) {
  const std::string s = "photosynthesis converts carbon dioxide";
  EXPECT_DOUBLE_EQ(ContentOverlap(s, s), 1.0);
}

TEST(SimilarityTest, OverlapDisjointIsZero) {
  EXPECT_DOUBLE_EQ(
      ContentOverlap("gravity attracts masses", "poems rhyme nicely"), 0.0);
}

TEST(SimilarityTest, OverlapSymmetric) {
  const std::string a = "solar panels convert sunlight into power";
  const std::string b = "sunlight power grids rely upon panels";
  EXPECT_DOUBLE_EQ(ContentOverlap(a, b), ContentOverlap(b, a));
}

TEST(SimilarityTest, OverlapEmptyInputs) {
  EXPECT_DOUBLE_EQ(ContentOverlap("", "anything here"), 0.0);
  EXPECT_DOUBLE_EQ(ContentOverlap("the a an", "of in at"), 0.0);
}

TEST(SimilarityTest, ContainmentIsAsymmetric) {
  const std::string query = "gravity tides";
  const std::string doc = "gravity causes ocean tides and holds planets";
  EXPECT_DOUBLE_EQ(Containment(query, doc), 1.0);
  EXPECT_LT(Containment(doc, query), 1.0);
}

TEST(SimilarityTest, ContainmentPartial) {
  EXPECT_NEAR(Containment("gravity apples bananas", "gravity is real"),
              1.0 / 3.0, 1e-12);
}

TEST(SimilarityTest, CaseInsensitive) {
  EXPECT_DOUBLE_EQ(ContentOverlap("GRAVITY Pulls", "gravity pulls"), 1.0);
}

/// Content words by definition: filter the WordTokenize token list.
std::set<std::string> ReferenceContentWords(const std::string& text) {
  std::set<std::string> words;
  for (const std::string& token : tokenizer::WordTokenize(text)) {
    if (tokenizer::IsPunctuation(token)) continue;
    const std::string lower = strings::Lower(token);
    if (lower.size() < 3) continue;
    if (lexicons::Stopwords().count(lower) > 0) continue;
    words.insert(lower);
  }
  return words;
}

const std::vector<std::string>& EdgeTexts() {
  static const std::vector<std::string> kTexts = {
      "", "   ", "The cat sat on a big mat.", "(Hello), world!!",
      "pi is 3.14. Really 3.14", "--dash-word-- \"quoted\" 'single'",
      "def fibonacci(n):\n    a, b = 0, 1\n\treturn a",
      "...!!! ??? -- -.", "v2.0. 12. x.y.z. e.g. U.S.A.",
      "MIXED Case WORDS, repeated words words WORDS",
      "tabs\tand\nnewlines\r\nand  spaces", "a an the of is",
      "THE Caf\xc3\xa9 caf\xc3\xa9 \xff\xfe words"};
  return kTexts;
}

TEST(SimilarityTest, ContentWordsMatchTokenizerDefinition) {
  for (const std::string& text : EdgeTexts()) {
    const std::set<std::string> expected = ReferenceContentWords(text);
    EXPECT_EQ(std::vector<std::string>(expected.begin(), expected.end()),
              SortedContentWords(text))
        << text;
  }
}

TEST(SimilarityTest, OverlapAndContainmentMatchSetDefinition) {
  // The merge-counted ratios equal the set-defined ones bit for bit.
  for (const std::string& a : EdgeTexts()) {
    for (const std::string& b : EdgeTexts()) {
      const std::set<std::string> wa = ReferenceContentWords(a);
      const std::set<std::string> wb = ReferenceContentWords(b);
      size_t common = 0;
      for (const std::string& w : wa) common += wb.count(w);
      const double overlap =
          wa.empty() || wb.empty()
              ? 0.0
              : static_cast<double>(common) /
                    static_cast<double>(wa.size() + wb.size() - common);
      const double containment =
          wa.empty() ? 0.0
                     : static_cast<double>(common) /
                           static_cast<double>(wa.size());
      EXPECT_EQ(ContentOverlap(a, b), overlap) << a << " | " << b;
      EXPECT_EQ(Containment(a, b), containment) << a << " | " << b;
    }
  }
}

}  // namespace
}  // namespace similarity
}  // namespace coachlm
