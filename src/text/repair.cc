#include "text/repair.h"

#include <array>
#include <string_view>

#include "text/ascii.h"
#include "text/lexicons.h"
#include "text/string_util.h"
#include "text/tokenizer.h"

namespace coachlm {
namespace repair {
namespace {

/// Bytes that can change CapitalizeSentences' state once a sentence's
/// first letter is behind it: a backtick (code fence), a digit (which
/// swallows a following '.') and the sentence terminators.
constexpr std::array<bool, 256> kSentenceEvent = [] {
  std::array<bool, 256> table{};
  for (size_t c = 0; c < 256; ++c) {
    table[c] = ascii::IsDigit(static_cast<char>(c)) || c == '`' ||
               c == '.' || c == '!' || c == '?' || c == '\n';
  }
  return table;
}();

}  // namespace

std::string FixKnownSpelling(const std::string& text) {
  std::string out = text;
  for (const auto& [bad, good] : lexicons::SpellingRepairs()) {
    out = strings::ReplaceAll(out, bad, good);
  }
  return out;
}

std::string CapitalizeSentences(std::string text) {
  bool at_start = true;
  bool in_code_fence = false;  // implies !at_start
  const size_t n = text.size();
  for (size_t i = 0; i < n; ++i) {
    if (!at_start) {
      // Every other byte leaves the state as it is: skip the run.
      while (i < n && !kSentenceEvent[static_cast<unsigned char>(text[i])]) {
        ++i;
      }
      if (i == n) break;
    }
    const char c = text[i];
    if (c == '`' && i + 2 < n && text[i + 1] == '`' &&
        text[i + 2] == '`') {
      // Code blocks keep their own casing.
      in_code_fence = !in_code_fence;
      i += 2;
      at_start = false;
      continue;
    }
    if (in_code_fence) continue;
    if (at_start && ascii::IsAlpha(c)) {
      text[i] = ascii::ToUpper(c);
      at_start = false;
    } else if (ascii::IsDigit(c)) {
      // List markers like "1." keep the following text as-is; a period
      // right after a digit does not start a new sentence.
      at_start = false;
      if (i + 1 < n && text[i + 1] == '.') ++i;
    } else if (c == '.' || c == '!' || c == '?' || c == '\n') {
      at_start = true;
    } else if (!ascii::IsSpace(c) && c != '"' && c != '\'' && c != '(' &&
               c != '-') {
      at_start = false;
    }
  }
  return text;
}

std::string RemoveDoubledWords(const std::string& text) {
  // Fields are compared as views into the text; only the kept ones are
  // copied, joined by single spaces (so newlines flatten, and callers
  // apply this repair to prose only).
  std::string out;
  out.reserve(text.size());
  std::string_view prev;
  tokenizer::ForEachField(text, [&](std::string_view word) {
    if (!out.empty() && word.size() > 1 && word == prev) return;
    if (!out.empty()) out += ' ';
    out += word;
    prev = word;
  });
  return out;
}

std::string ReflowLists(const std::string& text) {
  std::string out = text;
  out = strings::ReplaceAll(out, " - ", "\n- ");
  for (char digit = '1'; digit <= '9'; ++digit) {
    const std::string flat = std::string(" ") + digit + ". ";
    const std::string lined = std::string("\n") + digit + ". ";
    out = strings::ReplaceAll(out, flat, lined);
  }
  return out;
}

std::string CollapseSpaces(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  bool prev_space = false;
  for (char c : text) {
    if (c == ' ') {
      if (prev_space) continue;
      prev_space = true;
    } else {
      prev_space = false;
    }
    out += c;
  }
  return out;
}

}  // namespace repair
}  // namespace coachlm
