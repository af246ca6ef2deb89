#ifndef COACHLM_JSON_JSON_H_
#define COACHLM_JSON_JSON_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "json/parse_limits.h"

namespace coachlm {
namespace json {

class Value;

/// JSON array type.
using Array = std::vector<Value>;
/// JSON object type; std::map keeps key order deterministic for diffing.
using Object = std::map<std::string, Value>;

/// \brief Discriminator for the JSON value kinds.
enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

/// \brief A dynamically-typed JSON value.
///
/// Instruction datasets are exchanged on disk in the Alpaca JSON format
/// (an array of {"instruction", "input", "output"} objects); this value
/// class plus Parse()/Dump() is the only serialization machinery the
/// repository depends on — no third-party JSON library.
class Value {
 public:
  /// Constructs null.
  Value() : type_(Type::kNull) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}            // NOLINT
  Value(double d) : type_(Type::kNumber), number_(d) {}      // NOLINT
  Value(int i) : type_(Type::kNumber), number_(i) {}         // NOLINT
  Value(int64_t i)                                           // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Value(size_t i)                                            // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Value(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT
  Value(std::string s)                                        // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}
  Value(Array a);   // NOLINT
  Value(Object o);  // NOLINT

  /// Returns the value kind.
  Type type() const { return type_; }

  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// \name Unchecked accessors; calling with a mismatched type returns a
  /// default (false / 0 / empty). Use the typed Get* helpers on objects for
  /// checked access.
  /// @{
  bool AsBool() const { return is_bool() ? bool_ : false; }
  double AsNumber() const { return is_number() ? number_ : 0.0; }
  int64_t AsInt() const { return static_cast<int64_t>(AsNumber()); }
  const std::string& AsString() const;
  const Array& AsArray() const;
  Array& AsArray();
  const Object& AsObject() const;
  Object& AsObject();
  /// @}

  /// Looks up \p key in an object value; errors when not an object or the
  /// key is missing / has the wrong type.
  [[nodiscard]] Result<std::string> GetString(const std::string& key) const;
  [[nodiscard]] Result<double> GetNumber(const std::string& key) const;
  [[nodiscard]] Result<bool> GetBool(const std::string& key) const;

  /// Returns the member \p key or null when absent / not an object.
  const Value& At(const std::string& key) const;

  /// Serializes to a compact JSON string.
  std::string Dump() const;

  /// Serializes with 2-space indentation.
  std::string DumpPretty() const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// \brief Parses a JSON document under \p limits.
///
/// The parser is iterative (an explicit frame stack, no recursion), so a
/// nesting bomb is rejected by the depth limit before any stack-overflow
/// risk. Rejects trailing garbage, unterminated strings, invalid escapes,
/// and every ParseLimits violation — each with a typed Status carrying the
/// byte offset.
[[nodiscard]] Result<Value> Parse(std::string_view text, const ParseLimits& limits);

/// \brief Parses under the process-wide ParseLimits::Default().
[[nodiscard]] Result<Value> Parse(std::string_view text);

/// \brief What one byte means inside a JSON string literal.
enum class StringByte : uint8_t {
  kPlain,      ///< Copied as-is by the escaper and the parsers.
  kQuote,      ///< '"': ends a literal; escaped on output.
  kBackslash,  ///< '\\': starts an escape; escaped on output.
  kControl,    ///< Below 0x20: escaped on output, rejected raw on input.
  kHigh,       ///< 0x80 and up: copied on output, UTF-8-checked on input.
};

/// \brief The one byte-class table every string scanner runs on: the
/// escaper (AppendEscaped), the DOM parser, and the typed pair codec copy
/// whole runs of kPlain bytes instead of deciding byte by byte.
inline constexpr std::array<StringByte, 256> kStringByteClass = [] {
  std::array<StringByte, 256> table{};
  for (size_t c = 0; c < 256; ++c) {
    table[c] = c < 0x20    ? StringByte::kControl
               : c == '"'  ? StringByte::kQuote
               : c == '\\' ? StringByte::kBackslash
               : c >= 0x80 ? StringByte::kHigh
                           : StringByte::kPlain;
  }
  return table;
}();

/// \brief Class of byte \p c in kStringByteClass.
inline StringByte StringByteClass(char c) {
  return kStringByteClass[static_cast<unsigned char>(c)];
}

/// \brief Length of the well-formed UTF-8 sequence starting at \p p (whose
/// lead byte is >= 0x80), or 0 when the bytes before \p end are not
/// well-formed UTF-8 (torn sequence, overlong encoding, surrogate, or
/// > U+10FFFF).
size_t Utf8SequenceLength(const char* p, const char* end);

/// \brief Appends \p s to \p out as a JSON string literal (with quotes):
/// '"', '\\' and bytes below 0x20 are escaped, every other byte is copied.
void AppendEscaped(std::string_view s, std::string* out);

/// \brief Escapes a string into a JSON string literal (with quotes).
std::string EscapeString(const std::string& s);

}  // namespace json
}  // namespace coachlm

#endif  // COACHLM_JSON_JSON_H_
