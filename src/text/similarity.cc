#include "text/similarity.h"

#include <algorithm>
#include <cctype>
#include <string_view>

#include "text/lexicons.h"
#include "text/tokenizer.h"

namespace coachlm {
namespace similarity {

namespace {

/// Calls \p sink with every content-word occurrence of \p text, in text
/// order (duplicates included): the lower-cased WordTokenize word tokens of
/// length >= 3 that are not stopwords. It walks the whitespace fields in
/// place instead of materializing the token list, because the backbone
/// tokenizes every query this way.
template <typename Sink>
void ForEachContentWord(const std::string& text, Sink sink) {
  const auto& stopwords = lexicons::Stopwords();
  const auto is_space = [&text](size_t i) {
    return std::isspace(static_cast<unsigned char>(text[i])) != 0;
  };
  std::string word;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(i)) ++i;
    const size_t field_begin = i;
    while (i < text.size() && !is_space(i)) ++i;
    const std::string_view core = tokenizer::WordCore(
        std::string_view(text).substr(field_begin, i - field_begin));
    if (core.size() < 3) continue;
    word.assign(core);
    if (tokenizer::IsPunctuation(word)) continue;
    for (char& c : word) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (stopwords.count(word) > 0) continue;
    sink(word);
  }
}

}  // namespace

std::unordered_set<std::string> ContentWords(const std::string& text) {
  std::unordered_set<std::string> words;
  ForEachContentWord(text,
                     [&words](const std::string& word) { words.insert(word); });
  return words;
}

std::vector<std::string> SortedContentWords(const std::string& text) {
  std::vector<std::string> words;
  ForEachContentWord(
      text, [&words](const std::string& word) { words.push_back(word); });
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  return words;
}

double ContentOverlap(const std::string& a, const std::string& b) {
  const auto wa = ContentWords(a);
  const auto wb = ContentWords(b);
  if (wa.empty() || wb.empty()) return 0.0;
  size_t common = 0;
  for (const std::string& w : wa) {
    if (wb.count(w) > 0) ++common;
  }
  const size_t total = wa.size() + wb.size() - common;
  return total == 0 ? 0.0
                    : static_cast<double>(common) / static_cast<double>(total);
}

double Containment(const std::string& query, const std::string& doc) {
  const auto wq = ContentWords(query);
  if (wq.empty()) return 0.0;
  const auto wd = ContentWords(doc);
  size_t covered = 0;
  for (const std::string& w : wq) {
    if (wd.count(w) > 0) ++covered;
  }
  return static_cast<double>(covered) / static_cast<double>(wq.size());
}

}  // namespace similarity
}  // namespace coachlm
