#ifndef COACHLM_TEXT_SIMILARITY_H_
#define COACHLM_TEXT_SIMILARITY_H_

#include <string>
#include <unordered_set>
#include <vector>

namespace coachlm {

/// \brief Lexical similarity helpers shared by the quality analyzers
/// (relevance scoring) and the backbone knowledge retrieval.
namespace similarity {

/// Lower-cased non-stopword words of length >= 3.
std::unordered_set<std::string> ContentWords(const std::string& text);

/// The same words as ContentWords, sorted and without duplicates, so that
/// iterating them cannot depend on hash order.
std::vector<std::string> SortedContentWords(const std::string& text);

/// Jaccard similarity of the content-word sets of \p a and \p b.
double ContentOverlap(const std::string& a, const std::string& b);

/// Overlap of \p query's content words that are covered by \p doc
/// (containment rather than Jaccard; asymmetric, in [0, 1]).
double Containment(const std::string& query, const std::string& doc);

}  // namespace similarity
}  // namespace coachlm

#endif  // COACHLM_TEXT_SIMILARITY_H_
