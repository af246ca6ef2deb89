#include "text/similarity.h"

#include <algorithm>

#include "text/lexicons.h"
#include "text/string_util.h"

namespace coachlm {
namespace similarity {

namespace {

/// How many words two sorted, de-duplicated word lists share. A count, so
/// the ratios built from it do not depend on the order words were seen in.
size_t CountCommon(const std::vector<std::string_view>& a,
                   const std::vector<std::string_view>& b) {
  size_t common = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++common;
      ++ia;
      ++ib;
    }
  }
  return common;
}

/// The distinct content words of the lower-cased text \p lower, sorted, as
/// views into \p lower.
std::vector<std::string_view> SortedContentWordViews(std::string_view lower) {
  std::vector<std::string_view> words;
  ForEachCandidateWord(lower, [&words](std::string_view word) {
    if (!lexicons::Stopwords().contains(word)) words.push_back(word);
  });
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  return words;
}

}  // namespace

std::vector<std::string> SortedContentWords(const std::string& text) {
  const std::string lower = strings::Lower(text);
  const std::vector<std::string_view> views = SortedContentWordViews(lower);
  return std::vector<std::string>(views.begin(), views.end());
}

double ContentOverlap(const std::string& a, const std::string& b) {
  const std::string lower_a = strings::Lower(a);
  const std::string lower_b = strings::Lower(b);
  const auto wa = SortedContentWordViews(lower_a);
  const auto wb = SortedContentWordViews(lower_b);
  if (wa.empty() || wb.empty()) return 0.0;
  const size_t common = CountCommon(wa, wb);
  const size_t total = wa.size() + wb.size() - common;
  return total == 0 ? 0.0
                    : static_cast<double>(common) / static_cast<double>(total);
}

double Containment(const std::string& query, const std::string& doc) {
  const std::string lower_query = strings::Lower(query);
  const auto wq = SortedContentWordViews(lower_query);
  if (wq.empty()) return 0.0;
  const std::string lower_doc = strings::Lower(doc);
  const size_t covered = CountCommon(wq, SortedContentWordViews(lower_doc));
  return static_cast<double>(covered) / static_cast<double>(wq.size());
}

}  // namespace similarity
}  // namespace coachlm
