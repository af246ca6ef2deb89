#include "text/string_util.h"

#include "text/ascii.h"

namespace coachlm {
namespace strings {

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = ascii::ToLower(c);
  return out;
}

std::string Trim(const std::string& s) { return std::string(TrimView(s)); }

std::string_view TrimView(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && ascii::IsSpace(s[begin])) ++begin;
  while (end > begin && ascii::IsSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

bool IsBlank(std::string_view s) { return TrimView(s).empty(); }

std::vector<std::string> Split(const std::string& s, char sep,
                               bool keep_empty) {
  std::vector<std::string> parts;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t next = s.find(sep, pos);
    if (next == std::string::npos) next = s.size();
    std::string piece = s.substr(pos, next - pos);
    if (keep_empty || !piece.empty()) parts.push_back(std::move(piece));
    if (next == s.size()) break;
    pos = next + 1;
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (ascii::ToLower(a[i]) != ascii::ToLower(b[i])) return false;
  }
  return true;
}

bool Contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to) {
  if (from.empty()) return s;
  size_t pos = 0;
  while ((pos = s.find(from, pos)) != std::string::npos) {
    s.replace(pos, from.size(), to);
    pos += to.size();
  }
  return s;
}

std::string CollapseWhitespace(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  bool in_space = false;
  for (char c : s) {
    if (ascii::IsSpace(c)) {
      in_space = true;
      continue;
    }
    if (in_space && !out.empty()) out += ' ';
    in_space = false;
    out += c;
  }
  return out;
}

std::string Capitalize(std::string s) {
  for (char& c : s) {
    if (ascii::IsAlpha(c)) {
      c = ascii::ToUpper(c);
      break;
    }
    // Skip whitespace and opening quotes/brackets; stop at anything else
    // (digits start list items, which keep their own casing).
    if (!ascii::IsSpace(c) && c != '"' && c != '\'' && c != '(') {
      break;
    }
  }
  return s;
}

size_t CountWords(std::string_view s) {
  // A word starts at every non-space byte that follows a space byte or
  // the start of the text.
  size_t count = 0;
  bool prev_space = true;
  for (const char c : s) {
    const bool space = ascii::IsSpace(c);
    count += static_cast<size_t>(prev_space && !space);
    prev_space = space;
  }
  return count;
}

}  // namespace strings
}  // namespace coachlm
