#ifndef COACHLM_TEXT_ASCII_H_
#define COACHLM_TEXT_ASCII_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace coachlm {

/// \brief Byte classification and case mapping for the text stack.
///
/// Every text scanner (lower-casing, trimming, word counting, the
/// tokenizer's field and punctuation scans, sentence capitalization)
/// classifies bytes through this one table instead of `<cctype>`. The
/// classes are exactly those of the C locale: space is ' ' and '\t'..'\r',
/// punctuation is the printable non-alphanumeric range 0x21..0x7e, and
/// bytes 0x80 and up belong to no class and map to themselves. No locale
/// is consulted, so output never depends on LC_CTYPE, and every call is
/// inlined instead of going through the C library.
namespace ascii {

/// Bit flags of one byte's classes.
enum ByteClass : uint8_t {
  kSpace = 1,
  kDigit = 2,
  kUpper = 4,
  kLower = 8,
  kPunct = 16,
};

inline constexpr std::array<uint8_t, 256> kByteClass = [] {
  std::array<uint8_t, 256> table{};
  for (size_t c = 0; c < 256; ++c) {
    table[c] = c == ' ' || (c >= '\t' && c <= '\r') ? kSpace
               : c >= '0' && c <= '9'                ? kDigit
               : c >= 'A' && c <= 'Z'                ? kUpper
               : c >= 'a' && c <= 'z'                ? kLower
               : c >= 0x21 && c <= 0x7e              ? kPunct
                                                     : 0;
  }
  return table;
}();

/// The class bits of byte \p c (indexed unsigned, so bytes >= 0x80 are
/// in range whatever the signedness of char).
constexpr uint8_t ClassOf(char c) {
  return kByteClass[static_cast<unsigned char>(c)];
}

constexpr bool IsSpace(char c) { return (ClassOf(c) & kSpace) != 0; }
constexpr bool IsDigit(char c) { return (ClassOf(c) & kDigit) != 0; }
constexpr bool IsLower(char c) { return (ClassOf(c) & kLower) != 0; }
constexpr bool IsAlpha(char c) {
  return (ClassOf(c) & (kUpper | kLower)) != 0;
}
constexpr bool IsPunct(char c) { return (ClassOf(c) & kPunct) != 0; }

/// 'A'..'Z' to 'a'..'z'; every other byte unchanged.
constexpr char ToLower(char c) {
  return static_cast<unsigned char>(c - 'A') < 26 ? static_cast<char>(c + 32)
                                                   : c;
}

/// 'a'..'z' to 'A'..'Z'; every other byte unchanged.
constexpr char ToUpper(char c) {
  return static_cast<unsigned char>(c - 'a') < 26 ? static_cast<char>(c - 32)
                                                   : c;
}

}  // namespace ascii
}  // namespace coachlm

#endif  // COACHLM_TEXT_ASCII_H_
