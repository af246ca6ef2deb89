#ifndef COACHLM_TEXT_TOKENIZER_H_
#define COACHLM_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace coachlm {

/// \brief Word-level tokenization used by edit-distance, alignment, and the
/// n-gram language model.
///
/// The tokenizer splits on whitespace and separates trailing/leading ASCII
/// punctuation into standalone tokens, so that the word-level edit distance
/// in Table VII counts "fix a comma" as a one-token edit rather than a word
/// replacement. Detokenize() re-attaches punctuation.
namespace tokenizer {

/// Splits \p text into word and punctuation tokens.
std::vector<std::string> WordTokenize(const std::string& text);

/// The word token WordTokenize keeps from one whitespace field: the field
/// minus the leading and trailing punctuation it splits off as
/// one-character tokens. Empty (pointing at the split point) when the
/// field is all punctuation.
std::string_view WordCore(std::string_view field);

/// Splits \p text on whitespace only (fields keep punctuation).
std::vector<std::string> WhitespaceTokenize(const std::string& text);

/// Reassembles tokens into a string, attaching closing punctuation to the
/// preceding token and opening brackets/quotes to the following one.
std::string Detokenize(const std::vector<std::string>& tokens);

/// Splits \p text into sentences on ., !, ? followed by whitespace, and on
/// newlines. Keeps the terminator with the sentence.
std::vector<std::string> SplitSentences(const std::string& text);

/// True when the token consists solely of ASCII punctuation.
bool IsPunctuation(const std::string& token);

}  // namespace tokenizer
}  // namespace coachlm

#endif  // COACHLM_TEXT_TOKENIZER_H_
