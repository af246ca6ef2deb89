#ifndef COACHLM_TEXT_REPAIR_H_
#define COACHLM_TEXT_REPAIR_H_

#include <string>

namespace coachlm {

/// \brief Generic surface-repair transformations.
///
/// These encode basic language competence — fixing a known misspelling,
/// re-capitalizing sentences, deduplicating words, reflowing flattened
/// lists. The expert simulator applies them judgment-driven (whenever the
/// criteria flag a readability issue); CoachLM applies them only when the
/// corresponding learned rule has enough support (the backbone *can* do
/// these things, coach tuning teaches it *when to*).
namespace repair {

/// Replaces every known misspelling with its correct form.
std::string FixKnownSpelling(const std::string& text);

/// Upper-cases the first letter of each sentence, in place: callers that
/// no longer need their text move it in.
std::string CapitalizeSentences(std::string text);

/// Removes immediately repeated words ("the the" -> "the").
std::string RemoveDoubledWords(const std::string& text);

/// Moves flattened list items back onto their own lines
/// (" - x - y" -> "\n- x\n- y", " 2. " -> "\n2. ").
std::string ReflowLists(const std::string& text);

/// Collapses runs of spaces (not newlines) to single spaces.
std::string CollapseSpaces(const std::string& text);

}  // namespace repair
}  // namespace coachlm

#endif  // COACHLM_TEXT_REPAIR_H_
