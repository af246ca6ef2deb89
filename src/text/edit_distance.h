#ifndef COACHLM_TEXT_EDIT_DISTANCE_H_
#define COACHLM_TEXT_EDIT_DISTANCE_H_

#include <cstddef>
#include <string>
#include <vector>

namespace coachlm {

/// \brief Levenshtein edit distances at character and word granularity.
///
/// The paper uses edit distance twice: (1) to rank expert revision pairs
/// by information content for the α-selection of Section II-F2, and (2) to
/// report the word-level revision magnitude in Table VII. Both call into
/// these functions.
namespace editdist {

/// Character-level Levenshtein distance (unit costs), exact. Bytes are the
/// characters; the common prefix and suffix are trimmed and the rest runs
/// through a bit-parallel (Myers/Hyyro) kernel, 64 columns per word.
size_t CharDistance(const std::string& a, const std::string& b);

/// Character-level distance clamped to \p bound + 1: returns bound + 1
/// whenever the true distance exceeds \p bound.
size_t CharDistanceBounded(const std::string& a, const std::string& b,
                           size_t bound);

/// Word-level Levenshtein distance over the given token sequences.
size_t TokenDistance(const std::vector<std::string>& a,
                     const std::vector<std::string>& b);

/// Word-level distance computed after WordTokenize() of both strings.
size_t WordDistance(const std::string& a, const std::string& b);

/// Normalized distance in [0, 1]: distance / max(len(a), len(b)); 0 when
/// both inputs are empty.
double NormalizedCharDistance(const std::string& a, const std::string& b);

}  // namespace editdist
}  // namespace coachlm

#endif  // COACHLM_TEXT_EDIT_DISTANCE_H_
