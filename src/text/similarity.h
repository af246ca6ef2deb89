#ifndef COACHLM_TEXT_SIMILARITY_H_
#define COACHLM_TEXT_SIMILARITY_H_

#include <string>
#include <string_view>
#include <vector>

#include "text/tokenizer.h"

namespace coachlm {

/// \brief Lexical similarity helpers shared by the quality analyzers
/// (relevance scoring) and the backbone knowledge retrieval.
namespace similarity {

/// Calls \p sink with every content-word candidate of \p lower, a
/// lower-cased text, in text order with duplicates: the WordTokenize word
/// token of each whitespace field when it has at least three bytes, as a
/// view into \p lower. (A non-empty WordCore always keeps a byte that is
/// not punctuation, so no word is all punctuation.) Case does not change
/// what is space, punctuation or a digit, so lower-casing the whole text
/// first yields the same words as lower-casing each token. Stopwords are
/// left to the caller, which tests them in its own table.
template <typename Sink>
void ForEachCandidateWord(std::string_view lower, Sink&& sink) {
  tokenizer::ForEachField(lower, [&sink](std::string_view field) {
    const std::string_view core = tokenizer::WordCore(field);
    if (core.size() < 3) return;
    sink(core);
  });
}

/// The content words of \p text: its lower-cased candidate words that are
/// not stopwords, sorted and without duplicates.
std::vector<std::string> SortedContentWords(const std::string& text);

/// Jaccard similarity of the content-word sets of \p a and \p b.
double ContentOverlap(const std::string& a, const std::string& b);

/// Overlap of \p query's content words that are covered by \p doc
/// (containment rather than Jaccard; asymmetric, in [0, 1]).
double Containment(const std::string& query, const std::string& doc);

}  // namespace similarity
}  // namespace coachlm

#endif  // COACHLM_TEXT_SIMILARITY_H_
