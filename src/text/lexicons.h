#ifndef COACHLM_TEXT_LEXICONS_H_
#define COACHLM_TEXT_LEXICONS_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace coachlm {

/// \brief Shared word lists used by the corpus generator, the quality
/// analyzers, and the expert revision simulator.
///
/// Only the generator and the expert oracle consult these tables directly;
/// CoachLM must *learn* e.g. the spelling-correction map from expert
/// revision pairs (see lm/rule_extractor.h), keeping the learning problem
/// honest.
namespace lexicons {

/// Hashes std::string and std::string_view alike, so a string-keyed set
/// or map built with it (and std::equal_to<>) can be probed by view: a
/// scanner looks up a field of a text without copying it.
struct WordHash {
  using is_transparent = void;
  size_t operator()(std::string_view word) const {
    return std::hash<std::string_view>{}(word);
  }
};

/// A set of words that answers lookups by std::string_view.
using WordSet = std::unordered_set<std::string, WordHash, std::equal_to<>>;

/// Common English stopwords (lower-case).
const WordSet& Stopwords();

/// Words/phrases signalling a humanized, empathetic tone.
const std::vector<std::string>& PolitenessMarkers();

/// Hedge/vague words that reduce instruction feasibility ("maybe", "stuff").
const std::unordered_set<std::string>& HedgeWords();

/// Terms that trip the safety red line of Table II.
const std::vector<std::string>& UnsafeTerms();

/// Discourse connectives that indicate explanatory depth ("because",
/// "therefore", "for example").
const std::vector<std::string>& ExplanationMarkers();

/// Map from a correctly spelled word to its corrupted form, used by the
/// defect injector; the expert repairs via the inverse map.
const std::unordered_map<std::string, std::string>& SpellingCorruptions();

/// Inverse of SpellingCorruptions(): corrupted form -> correct form.
const std::unordered_map<std::string, std::string>& SpellingRepairs();

/// Ambiguity fillers used by the AmbiguousInstruction defect ("the thing",
/// "it", "some stuff").
const std::vector<std::string>& AmbiguityFillers();

/// Mechanical-tone boilerplate openers that the Humanization dimension
/// penalizes ("As an AI language model , ...").
const std::vector<std::string>& MechanicalOpeners();

}  // namespace lexicons
}  // namespace coachlm

#endif  // COACHLM_TEXT_LEXICONS_H_
