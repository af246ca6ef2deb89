#ifndef COACHLM_TEXT_STRING_UTIL_H_
#define COACHLM_TEXT_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace coachlm {

/// \brief Plain string helpers used across the text stack.
/// All functions are ASCII-oriented; the corpus generator emits ASCII.
/// Bytes are classified by the ascii:: table (text/ascii.h), never by the
/// C locale, so bytes 0x80 and up are neither space nor letters.
namespace strings {

/// Returns \p s lower-cased (ASCII).
std::string Lower(const std::string& s);

/// Returns \p s with leading/trailing whitespace removed.
std::string Trim(const std::string& s);

/// The view of \p s without its leading/trailing whitespace.
std::string_view TrimView(std::string_view s);

/// True when \p s is empty or all whitespace: Trim(s).empty() without the
/// copy.
bool IsBlank(std::string_view s);

/// Splits on \p sep, dropping empty pieces when \p keep_empty is false.
std::vector<std::string> Split(const std::string& s, char sep,
                               bool keep_empty = false);

/// Joins \p parts with \p sep.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// True when \p s begins with \p prefix.
bool StartsWith(const std::string& s, const std::string& prefix);

/// True when \p s ends with \p suffix.
bool EndsWith(const std::string& s, const std::string& suffix);

/// True when \p a and \p b are equal after ASCII lower-casing.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True when \p s contains \p needle.
bool Contains(const std::string& s, const std::string& needle);

/// Replaces every occurrence of \p from with \p to.
std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to);

/// Collapses runs of whitespace into single spaces and trims the ends.
std::string CollapseWhitespace(const std::string& s);

/// Upper-cases the first alphabetic character.
std::string Capitalize(std::string s);

/// Number of whitespace-separated words. When \p b is empty or starts
/// with whitespace, CountWords(a + b) == CountWords(a) + CountWords(b).
size_t CountWords(std::string_view s);

}  // namespace strings
}  // namespace coachlm

#endif  // COACHLM_TEXT_STRING_UTIL_H_
