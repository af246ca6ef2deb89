#include "json/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "text/ascii.h"

namespace coachlm {
namespace json {

namespace {
const std::string kEmptyString;
const Array kEmptyArray;
const Object kEmptyObject;
const Value kNullValue;
}  // namespace

Value::Value(Array a)
    : type_(Type::kArray), array_(std::make_shared<Array>(std::move(a))) {}

Value::Value(Object o)
    : type_(Type::kObject), object_(std::make_shared<Object>(std::move(o))) {}

const std::string& Value::AsString() const {
  return is_string() ? string_ : kEmptyString;
}

const Array& Value::AsArray() const {
  return is_array() ? *array_ : kEmptyArray;
}

Array& Value::AsArray() {
  if (!is_array()) {
    type_ = Type::kArray;
    array_ = std::make_shared<Array>();
  }
  return *array_;
}

const Object& Value::AsObject() const {
  return is_object() ? *object_ : kEmptyObject;
}

Object& Value::AsObject() {
  if (!is_object()) {
    type_ = Type::kObject;
    object_ = std::make_shared<Object>();
  }
  return *object_;
}

const Value& Value::At(const std::string& key) const {
  if (!is_object()) return kNullValue;
  auto it = object_->find(key);
  if (it == object_->end()) return kNullValue;
  return it->second;
}

Result<std::string> Value::GetString(const std::string& key) const {
  const Value& v = At(key);
  if (!v.is_string()) {
    return Status::ParseError("missing or non-string field '" + key + "'");
  }
  return v.AsString();
}

Result<double> Value::GetNumber(const std::string& key) const {
  const Value& v = At(key);
  if (!v.is_number()) {
    return Status::ParseError("missing or non-number field '" + key + "'");
  }
  return v.AsNumber();
}

Result<bool> Value::GetBool(const std::string& key) const {
  const Value& v = At(key);
  if (!v.is_bool()) {
    return Status::ParseError("missing or non-bool field '" + key + "'");
  }
  return v.AsBool();
}

void AppendEscaped(std::string_view s, std::string* out) {
  out->push_back('"');
  const char* p = s.data();
  const char* const end = p + s.size();
  const auto copied = [](char c) {
    const StringByte b = StringByteClass(c);
    return b == StringByte::kPlain || b == StringByte::kHigh;
  };
  while (p != end) {
    const char* run = p;
    while (p != end && copied(*p)) ++p;
    out->append(run, static_cast<size_t>(p - run));
    if (p == end) break;
    const unsigned char c = static_cast<unsigned char>(*p++);
    switch (c) {
      case '"':
        out->append("\\\"", 2);
        break;
      case '\\':
        out->append("\\\\", 2);
        break;
      case '\n':
        out->append("\\n", 2);
        break;
      case '\r':
        out->append("\\r", 2);
        break;
      case '\t':
        out->append("\\t", 2);
        break;
      case '\b':
        out->append("\\b", 2);
        break;
      case '\f':
        out->append("\\f", 2);
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->push_back('"');
}

std::string EscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendEscaped(s, &out);
  return out;
}

void Value::DumpTo(std::string* out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent > 0) {
      *out += '\n';
      out->append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kNumber: {
      char buf[40];
      if (number_ == std::floor(number_) && std::fabs(number_) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(number_));
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", number_);
      }
      *out += buf;
      break;
    }
    case Type::kString:
      AppendEscaped(string_, out);
      break;
    case Type::kArray: {
      *out += '[';
      bool first = true;
      for (const Value& v : *array_) {
        if (!first) *out += ',';
        first = false;
        newline(depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      if (!array_->empty()) newline(depth);
      *out += ']';
      break;
    }
    case Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, v] : *object_) {
        if (!first) *out += ',';
        first = false;
        newline(depth + 1);
        AppendEscaped(key, out);
        *out += indent > 0 ? ": " : ":";
        v.DumpTo(out, indent, depth + 1);
      }
      if (!object_->empty()) newline(depth);
      *out += '}';
      break;
    }
  }
}

std::string Value::Dump() const {
  std::string out;
  DumpTo(&out, 0, 0);
  return out;
}

std::string Value::DumpPretty() const {
  std::string out;
  DumpTo(&out, 2, 0);
  return out;
}

size_t Utf8SequenceLength(const char* p, const char* end) {
  const auto b = [&](size_t i) {
    return static_cast<unsigned char>(p[i]);
  };
  const unsigned char lead = b(0);
  const auto cont = [&](size_t i) { return (b(i) & 0xC0) == 0x80; };
  if (lead < 0xC2) return 0;  // continuation byte or overlong C0/C1 lead
  if (lead < 0xE0) {
    return (end - p >= 2 && cont(1)) ? 2 : 0;
  }
  if (lead < 0xF0) {
    if (end - p < 3 || !cont(1) || !cont(2)) return 0;
    if (lead == 0xE0 && b(1) < 0xA0) return 0;               // overlong
    if (lead == 0xED && b(1) >= 0xA0) return 0;              // surrogate
    return 3;
  }
  if (lead < 0xF5) {
    if (end - p < 4 || !cont(1) || !cont(2) || !cont(3)) return 0;
    if (lead == 0xF0 && b(1) < 0x90) return 0;               // overlong
    if (lead == 0xF4 && b(1) >= 0x90) return 0;              // > U+10FFFF
    return 4;
  }
  return 0;
}

namespace {

/// Iterative JSON parser over a raw character range: nesting is an explicit
/// frame stack bounded by ParseLimits::max_depth, never the thread stack,
/// so a hostile nesting bomb is rejected by a limit check instead of
/// risking a stack overflow. Every rejection carries the byte offset.
class Parser {
 public:
  Parser(const char* begin, const char* end, const ParseLimits& limits)
      : p_(begin), end_(end), start_(begin), limits_(limits) {}

  Result<Value> ParseDocument() {
    if (static_cast<size_t>(end_ - start_) > limits_.max_input_bytes) {
      return Status::ResourceExhausted(
          "document of " + std::to_string(end_ - start_) +
          " bytes exceeds max_input_bytes=" +
          std::to_string(limits_.max_input_bytes));
    }
    SkipWs();
    Value v;
    COACHLM_RETURN_NOT_OK(ParseValueIterative(&v));
    SkipWs();
    if (p_ != end_) return Fail("trailing characters after document");
    return v;
  }

 private:
  /// One partially-built container on the explicit stack. Exactly one of
  /// array/object is in use, discriminated by is_object.
  struct Frame {
    bool is_object = false;
    Array array;
    Object object;
    /// Key awaiting its value (objects only).
    std::string key;
  };

  Status Fail(const std::string& why) const {
    return Status::ParseError(why + " at offset " +
                              std::to_string(consumed()));
  }

  Status FailWith(StatusCode code, const std::string& why) const {
    return Status(code, why + " at offset " + std::to_string(consumed()));
  }

  size_t consumed() const { return static_cast<size_t>(p_ - start_); }

  void SkipWs() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  /// Budget check for each value the document materializes (scalars and
  /// containers alike): bounds total allocation even when every individual
  /// container is within its own limit.
  Status CountValue() {
    if (++total_values_ > limits_.max_total_values) {
      return FailWith(StatusCode::kResourceExhausted,
                      "document exceeds max_total_values=" +
                          std::to_string(limits_.max_total_values));
    }
    return Status::OK();
  }

  /// The driver loop. States alternate between "parse the next value" and
  /// "attach a completed value to the innermost open container"; opening a
  /// container pushes a frame, closing one pops it and completes a value.
  Status ParseValueIterative(Value* out) {
    std::vector<Frame> stack;
    Value value;
    bool completed = false;  // `value` holds a finished JSON value
    for (;;) {
      if (!completed) {
        SkipWs();
        if (p_ == end_) return Fail("unexpected end of input");
        const char c = *p_;
        if (c == '[' || c == '{') {
          if (stack.size() >= limits_.max_depth) {
            return FailWith(StatusCode::kResourceExhausted,
                            "nesting exceeds max_depth=" +
                                std::to_string(limits_.max_depth));
          }
          COACHLM_RETURN_NOT_OK(CountValue());
          ++p_;
          Frame frame;
          frame.is_object = (c == '{');
          SkipWs();
          if (frame.is_object) {
            if (p_ != end_ && *p_ == '}') {
              ++p_;
              value = Value(Object());
              completed = true;
              continue;
            }
            COACHLM_RETURN_NOT_OK(ParseMemberKey(&frame));
          } else if (p_ != end_ && *p_ == ']') {
            ++p_;
            value = Value(Array());
            completed = true;
            continue;
          }
          stack.push_back(std::move(frame));
          continue;
        }
        COACHLM_RETURN_NOT_OK(ParseScalar(&value));
        completed = true;
        continue;
      }
      // A value is complete: either it is the document, or it belongs to
      // the innermost open container.
      if (stack.empty()) {
        *out = std::move(value);
        return Status::OK();
      }
      Frame& top = stack.back();
      if (top.is_object) {
        if (top.object.size() >= limits_.max_object_members) {
          return FailWith(StatusCode::kResourceExhausted,
                          "object exceeds max_object_members=" +
                              std::to_string(limits_.max_object_members));
        }
        if (!limits_.allow_duplicate_keys &&
            top.object.count(top.key) > 0) {
          return Fail("duplicate object key '" + top.key + "'");
        }
        top.object[std::move(top.key)] = std::move(value);
      } else {
        if (top.array.size() >= limits_.max_array_elements) {
          return FailWith(StatusCode::kResourceExhausted,
                          "array exceeds max_array_elements=" +
                              std::to_string(limits_.max_array_elements));
        }
        top.array.push_back(std::move(value));
      }
      SkipWs();
      if (p_ == end_) {
        return Fail(top.is_object ? "unterminated object"
                                  : "unterminated array");
      }
      if (*p_ == ',') {
        ++p_;
        if (top.is_object) COACHLM_RETURN_NOT_OK(ParseMemberKey(&top));
        completed = false;
        continue;
      }
      if (*p_ == (top.is_object ? '}' : ']')) {
        ++p_;
        value = top.is_object ? Value(std::move(top.object))
                              : Value(std::move(top.array));
        stack.pop_back();
        continue;  // completed stays true: attach to the next frame down
      }
      return Fail(top.is_object ? "expected ',' or '}'"
                                : "expected ',' or ']'");
    }
  }

  /// Reads `"key" :` into \p frame (comma already consumed).
  Status ParseMemberKey(Frame* frame) {
    SkipWs();
    if (p_ == end_ || *p_ != '"') return Fail("expected object key");
    COACHLM_RETURN_NOT_OK(ParseString(&frame->key));
    SkipWs();
    if (p_ == end_ || *p_ != ':') return Fail("expected ':'");
    ++p_;
    return Status::OK();
  }

  Status ParseScalar(Value* out) {
    COACHLM_RETURN_NOT_OK(CountValue());
    switch (*p_) {
      case '"': {
        std::string s;
        COACHLM_RETURN_NOT_OK(ParseString(&s));
        *out = Value(std::move(s));
        return Status::OK();
      }
      case 't':
        return ParseLiteral("true", Value(true), out);
      case 'f':
        return ParseLiteral("false", Value(false), out);
      case 'n':
        return ParseLiteral("null", Value(), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(const char* lit, Value value, Value* out) {
    for (const char* c = lit; *c; ++c, ++p_) {
      if (p_ == end_ || *p_ != *c) return Fail("invalid literal");
    }
    *out = std::move(value);
    return Status::OK();
  }

  Status ParseNumber(Value* out) {
    const char* begin = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool any = false;
    while (p_ != end_ && (ascii::IsDigit(*p_) || *p_ == '.' || *p_ == 'e' ||
                          *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
      any = true;
      ++p_;
    }
    if (!any) return Fail("invalid number");
    std::string text(begin, p_);
    char* parse_end = nullptr;
    const double d = std::strtod(text.c_str(), &parse_end);
    if (parse_end != text.c_str() + text.size()) return Fail("invalid number");
    if (!limits_.allow_nonfinite_numbers && !std::isfinite(d)) {
      return FailWith(StatusCode::kOutOfRange,
                      "number '" + text + "' overflows double");
    }
    *out = Value(d);
    return Status::OK();
  }

  Status AppendChecked(std::string* out, const char* bytes, size_t n) {
    if (out->size() + n > limits_.max_string_bytes) {
      return FailWith(StatusCode::kResourceExhausted,
                      "string exceeds max_string_bytes=" +
                          std::to_string(limits_.max_string_bytes));
    }
    out->append(bytes, n);
    return Status::OK();
  }

  /// Appends the run of kPlain bytes at p_ and moves past it. On overflow
  /// p_ stops on the first byte past max_string_bytes, so the error names
  /// that byte's offset.
  Status AppendPlainRun(std::string* out) {
    const char* run = p_;
    while (p_ != end_ && StringByteClass(*p_) == StringByte::kPlain) ++p_;
    const size_t n = static_cast<size_t>(p_ - run);
    if (out->size() + n > limits_.max_string_bytes) {
      p_ = run + (limits_.max_string_bytes - out->size());
      return FailWith(StatusCode::kResourceExhausted,
                      "string exceeds max_string_bytes=" +
                          std::to_string(limits_.max_string_bytes));
    }
    out->append(run, n);
    return Status::OK();
  }

  Status AppendCheckedChar(std::string* out, char c) {
    return AppendChecked(out, &c, 1);
  }

  /// Reads the 4 hex digits after a \u escape's 'u' (p_ is on the 'u').
  Status ReadHex4(unsigned* code) {
    if (end_ - p_ < 5) return Fail("truncated \\u escape");
    *code = 0;
    for (int i = 1; i <= 4; ++i) {
      const char h = p_[i];
      *code <<= 4;
      if (h >= '0' && h <= '9') {
        *code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        *code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        *code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return Fail("invalid \\u escape");
      }
    }
    p_ += 4;
    return Status::OK();
  }

  Status AppendCodePoint(unsigned code, std::string* out) {
    char buf[4];
    size_t n;
    if (code < 0x80) {
      buf[0] = static_cast<char>(code);
      n = 1;
    } else if (code < 0x800) {
      buf[0] = static_cast<char>(0xC0 | (code >> 6));
      buf[1] = static_cast<char>(0x80 | (code & 0x3F));
      n = 2;
    } else if (code < 0x10000) {
      buf[0] = static_cast<char>(0xE0 | (code >> 12));
      buf[1] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      buf[2] = static_cast<char>(0x80 | (code & 0x3F));
      n = 3;
    } else {
      buf[0] = static_cast<char>(0xF0 | (code >> 18));
      buf[1] = static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      buf[2] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      buf[3] = static_cast<char>(0x80 | (code & 0x3F));
      n = 4;
    }
    return AppendChecked(out, buf, n);
  }

  Status AppendReplacementOrFail(std::string* out, const char* what) {
    switch (limits_.utf8_policy) {
      case Utf8Policy::kStrict:
        return Fail(std::string(what));
      case Utf8Policy::kReplace:
        return AppendChecked(out, "\xEF\xBF\xBD", 3);  // U+FFFD
      case Utf8Policy::kLenient:
        return Status::OK();  // caller appends the raw byte itself
    }
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    ++p_;  // opening quote
    out->clear();
    while (p_ != end_) {
      const unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        ++p_;
        return Status::OK();
      }
      if (c == '\\') {
        ++p_;
        if (p_ == end_) break;
        switch (*p_) {
          case '"':
            COACHLM_RETURN_NOT_OK(AppendCheckedChar(out, '"'));
            break;
          case '\\':
            COACHLM_RETURN_NOT_OK(AppendCheckedChar(out, '\\'));
            break;
          case '/':
            COACHLM_RETURN_NOT_OK(AppendCheckedChar(out, '/'));
            break;
          case 'n':
            COACHLM_RETURN_NOT_OK(AppendCheckedChar(out, '\n'));
            break;
          case 't':
            COACHLM_RETURN_NOT_OK(AppendCheckedChar(out, '\t'));
            break;
          case 'r':
            COACHLM_RETURN_NOT_OK(AppendCheckedChar(out, '\r'));
            break;
          case 'b':
            COACHLM_RETURN_NOT_OK(AppendCheckedChar(out, '\b'));
            break;
          case 'f':
            COACHLM_RETURN_NOT_OK(AppendCheckedChar(out, '\f'));
            break;
          case 'u': {
            unsigned code = 0;
            COACHLM_RETURN_NOT_OK(ReadHex4(&code));
            if (code >= 0xD800 && code <= 0xDBFF) {
              // High surrogate: must pair with a following \uDC00-\uDFFF
              // escape to name a supplementary-plane code point.
              if (end_ - p_ >= 3 && p_[1] == '\\' && p_[2] == 'u') {
                p_ += 2;
                unsigned low = 0;
                COACHLM_RETURN_NOT_OK(ReadHex4(&low));
                if (low < 0xDC00 || low > 0xDFFF) {
                  return Fail("unpaired surrogate escape");
                }
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
              } else if (limits_.utf8_policy == Utf8Policy::kStrict) {
                return Fail("unpaired surrogate escape");
              } else {
                code = 0xFFFD;
              }
            } else if (code >= 0xDC00 && code <= 0xDFFF) {
              if (limits_.utf8_policy == Utf8Policy::kStrict) {
                return Fail("unpaired surrogate escape");
              }
              code = 0xFFFD;
            }
            if (code == 0 && !limits_.allow_embedded_nul) {
              return FailWith(StatusCode::kInvalidArgument,
                              "embedded NUL in string");
            }
            COACHLM_RETURN_NOT_OK(AppendCodePoint(code, out));
            break;
          }
          default:
            return Fail("invalid escape character");
        }
        ++p_;
      } else if (c < 0x20) {
        return Fail("unescaped control character in string");
      } else if (c < 0x80) {
        COACHLM_RETURN_NOT_OK(AppendPlainRun(out));
      } else {
        const size_t len = Utf8SequenceLength(p_, end_);
        if (len > 0) {
          COACHLM_RETURN_NOT_OK(AppendChecked(out, p_, len));
          p_ += len;
        } else {
          COACHLM_RETURN_NOT_OK(
              AppendReplacementOrFail(out, "invalid UTF-8 sequence"));
          if (limits_.utf8_policy == Utf8Policy::kLenient) {
            COACHLM_RETURN_NOT_OK(
                AppendCheckedChar(out, static_cast<char>(c)));
          }
          ++p_;
        }
      }
    }
    return Fail("unterminated string");
  }

  const char* p_;
  const char* end_;
  const char* start_;
  const ParseLimits& limits_;
  size_t total_values_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text, const ParseLimits& limits) {
  Parser parser(text.data(), text.data() + text.size(), limits);
  return parser.ParseDocument();
}

Result<Value> Parse(std::string_view text) {
  return Parse(text, ParseLimits::Default());
}

}  // namespace json
}  // namespace coachlm
