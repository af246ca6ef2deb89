#include "text/tokenizer.h"

#include <cctype>

namespace coachlm {
namespace tokenizer {
namespace {

bool IsPunctChar(char c) {
  return std::ispunct(static_cast<unsigned char>(c)) != 0;
}

bool IsOpening(const std::string& tok) {
  return tok == "(" || tok == "[" || tok == "{" || tok == "\"" || tok == "'";
}

}  // namespace

bool IsPunctuation(const std::string& token) {
  if (token.empty()) return false;
  for (char c : token) {
    if (!IsPunctChar(c)) return false;
  }
  return true;
}

std::vector<std::string> WhitespaceTokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current += c;
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

std::string_view WordCore(std::string_view field) {
  // Peel leading punctuation.
  size_t begin = 0;
  while (begin < field.size() && IsPunctChar(field[begin]) &&
         field[begin] != '-') {
    ++begin;
  }
  // Peel trailing punctuation.
  size_t end = field.size();
  while (end > begin && IsPunctChar(field[end - 1]) &&
         // Keep in-word characters such as the period in "3.14" intact by
         // only peeling when the remainder is not numeric-ish.
         !(end >= 2 &&
           std::isdigit(static_cast<unsigned char>(field[end - 2])) &&
           field[end - 1] == '.' && end != field.size())) {
    --end;
  }
  return field.substr(begin, end - begin);
}

std::vector<std::string> WordTokenize(const std::string& text) {
  std::vector<std::string> tokens;
  for (const std::string& field : WhitespaceTokenize(text)) {
    const std::string_view core = WordCore(field);
    const size_t begin = static_cast<size_t>(core.data() - field.data());
    const size_t end = begin + core.size();
    for (size_t i = 0; i < begin; ++i) tokens.emplace_back(1, field[i]);
    if (!core.empty()) tokens.emplace_back(core);
    for (size_t i = end; i < field.size(); ++i) {
      tokens.emplace_back(1, field[i]);
    }
  }
  return tokens;
}

std::string Detokenize(const std::vector<std::string>& tokens) {
  std::string out;
  bool suppress_space = false;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const bool punct = IsPunctuation(tok);
    const bool closing = punct && !IsOpening(tok);
    if (!out.empty() && !suppress_space && !closing) out += ' ';
    out += tok;
    suppress_space = punct && IsOpening(tok);
  }
  return out;
}

std::vector<std::string> SplitSentences(const std::string& text) {
  std::vector<std::string> sentences;
  std::string current;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') {
      if (!current.empty()) {
        sentences.push_back(current);
        current.clear();
      }
      continue;
    }
    current += c;
    if ((c == '.' || c == '!' || c == '?') &&
        (i + 1 == text.size() ||
         std::isspace(static_cast<unsigned char>(text[i + 1])))) {
      // Avoid splitting decimal numbers like "3. 5" is fine; "3.5" has no
      // following space so it is not split.
      std::string trimmed;
      size_t b = current.find_first_not_of(' ');
      if (b != std::string::npos) trimmed = current.substr(b);
      if (!trimmed.empty()) sentences.push_back(trimmed);
      current.clear();
      if (i + 1 < text.size()) ++i;  // consume one following space
    }
  }
  std::string tail;
  size_t b = current.find_first_not_of(' ');
  if (b != std::string::npos) tail = current.substr(b);
  if (!tail.empty()) sentences.push_back(tail);
  return sentences;
}

}  // namespace tokenizer
}  // namespace coachlm
