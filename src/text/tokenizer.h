#ifndef COACHLM_TEXT_TOKENIZER_H_
#define COACHLM_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "text/ascii.h"

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
/// field is all punctuation. Inline: the backbone runs it on every field
/// of every text it scores.
inline std::string_view WordCore(std::string_view field) {
  // Peel leading punctuation.
  size_t begin = 0;
  while (begin < field.size() && ascii::IsPunct(field[begin]) &&
         field[begin] != '-') {
    ++begin;
  }
  // Peel trailing punctuation.
  size_t end = field.size();
  while (end > begin && ascii::IsPunct(field[end - 1]) &&
         // Keep in-word characters such as the period in "3.14" intact by
         // only peeling when the remainder is not numeric-ish.
         !(end >= 2 && ascii::IsDigit(field[end - 2]) &&
           field[end - 1] == '.' && end != field.size())) {
    --end;
  }
  return field.substr(begin, end - begin);
}

/// Calls \p sink with each whitespace-delimited field of \p text, in
/// order, as a view into \p text: the fields WhitespaceTokenize returns,
/// without copying them.
template <typename Sink>
void ForEachField(std::string_view text, Sink&& sink) {
  size_t i = 0;
  while (true) {
    while (i < text.size() && ascii::IsSpace(text[i])) ++i;
    if (i == text.size()) return;
    const size_t begin = i;
    while (i < text.size() && !ascii::IsSpace(text[i])) ++i;
    sink(text.substr(begin, i - begin));
  }
}

/// Splits \p text on whitespace only (fields keep punctuation).
std::vector<std::string> WhitespaceTokenize(const std::string& text);

/// Reassembles tokens into a string, attaching closing punctuation to the
/// preceding token and opening brackets/quotes to the following one.
std::string Detokenize(const std::vector<std::string>& tokens);

/// Splits \p text into sentences on ., !, ? followed by whitespace, and on
/// newlines. Keeps the terminator with the sentence.
std::vector<std::string> SplitSentences(const std::string& text);

/// True when the token consists solely of ASCII punctuation.
bool IsPunctuation(std::string_view token);

}  // namespace tokenizer
}  // namespace coachlm

#endif  // COACHLM_TEXT_TOKENIZER_H_
