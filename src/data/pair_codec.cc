#include "data/pair_codec.h"

#include <charconv>
#include <cstring>

#include "json/json.h"

namespace coachlm {
namespace {

/// Ids at or past this magnitude are printed by Dump() with %.17g; the
/// codec writes and reads only the integer form below it.
constexpr int64_t kMaxIntegerId = 1000000000000000;  // 1e15
constexpr size_t kMaxIdDigits = 15;

/// The longest key of either shape ("instruction"): Parse checks keys
/// against max_string_bytes too.
constexpr size_t kLongestKeyBytes = 11;

/// Values json::Parse counts against max_total_values: the object and its
/// five members for a pair; the outer object and two pairs for a record.
constexpr size_t kPairValues = 6;
constexpr size_t kRevisionValues = 1 + 2 * kPairValues;
constexpr size_t kPairMembers = 5;

/// Whether json::Parse under \p limits can accept a canonical line of
/// \p line_bytes whose objects nest \p depth deep and hold \p values
/// values. String lengths are checked as they are decoded.
bool ShapeWithinLimits(const json::ParseLimits& limits, size_t line_bytes,
                       size_t depth, size_t values) {
  return line_bytes <= limits.max_input_bytes && limits.max_depth >= depth &&
         limits.max_object_members >= kPairMembers &&
         limits.max_total_values >= values &&
         limits.max_string_bytes >= kLongestKeyBytes;
}

/// Cursor over one line; every method consumes its token or returns false.
class CanonicalDecoder {
 public:
  CanonicalDecoder(std::string_view line, const json::ParseLimits& limits)
      : p_(line.data()), end_(line.data() + line.size()), limits_(limits) {}

  bool AtEnd() const { return p_ == end_; }

  bool Literal(std::string_view text) {
    if (static_cast<size_t>(end_ - p_) < text.size() ||
        std::memcmp(p_, text.data(), text.size()) != 0) {
      return false;
    }
    p_ += text.size();
    return true;
  }

  bool Pair(InstructionPair* pair) {
    return Literal("{\"category\":") && CategoryValue(&pair->category) &&
           Literal(",\"id\":") && Id(&pair->id) && Literal(",\"input\":") &&
           String(&pair->input) && Literal(",\"instruction\":") &&
           String(&pair->instruction) && Literal(",\"output\":") &&
           String(&pair->output) && Literal("}");
  }

 private:
  bool CategoryValue(Category* category) {
    std::string name;
    if (!String(&name)) return false;
    Result<Category> found = CategoryFromName(name);
    if (!found.ok()) return false;
    *category = *found;
    return true;
  }

  /// 1 to 15 digits, no sign, no leading zero: exactly what Dump() prints
  /// for an id below 1e15, and exactly representable as a double.
  bool Id(uint64_t* id) {
    const char* begin = p_;
    while (p_ != end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    const size_t digits = static_cast<size_t>(p_ - begin);
    if (digits == 0 || digits > kMaxIdDigits ||
        (digits > 1 && *begin == '0')) {
      return false;
    }
    std::from_chars(begin, p_, *id);
    return true;
  }

  /// A string literal with the escapes the DOM decodes to the same single
  /// byte; \u escapes, raw control bytes and ill-formed UTF-8 decline.
  bool String(std::string* out) {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    out->clear();
    for (;;) {
      const char* run = p_;
      while (p_ != end_ &&
             json::StringByteClass(*p_) == json::StringByte::kPlain) {
        ++p_;
      }
      out->append(run, static_cast<size_t>(p_ - run));
      if (p_ == end_) return false;
      switch (json::StringByteClass(*p_)) {
        case json::StringByte::kQuote:
          ++p_;
          return out->size() <= limits_.max_string_bytes;
        case json::StringByte::kBackslash: {
          if (end_ - p_ < 2) return false;
          const char decoded = Unescape(p_[1]);
          if (decoded == '\0') return false;
          out->push_back(decoded);
          p_ += 2;
          break;
        }
        case json::StringByte::kHigh: {
          const size_t len = json::Utf8SequenceLength(p_, end_);
          if (len == 0) return false;
          out->append(p_, len);
          p_ += len;
          break;
        }
        case json::StringByte::kControl:
        case json::StringByte::kPlain:
          return false;
      }
    }
  }

  /// The byte a one-character escape stands for; '\0' for 'u' and for
  /// anything that is not an escape.
  static char Unescape(char c) {
    switch (c) {
      case '"':
      case '\\':
      case '/':
        return c;
      case 'n':
        return '\n';
      case 't':
        return '\t';
      case 'r':
        return '\r';
      case 'b':
        return '\b';
      case 'f':
        return '\f';
      default:
        return '\0';
    }
  }

  const char* p_;
  const char* const end_;
  const json::ParseLimits& limits_;
};

/// FromJson into \p pair, or the first schema failure into \p schema_error.
void PairFromDom(const json::Value& value, InstructionPair* pair,
                 Status* schema_error) {
  Result<InstructionPair> parsed = InstructionPair::FromJson(value);
  if (parsed.ok()) {
    *pair = std::move(parsed).ValueOrDie();
  } else if (schema_error->ok()) {
    *schema_error = parsed.status();
  }
}

}  // namespace

void AppendPairJson(const InstructionPair& pair, std::string* out) {
  // ToJson() stores the id as int64 -> double; Dump() prints it as an
  // integer only below 1e15 in magnitude.
  const int64_t id = static_cast<int64_t>(pair.id);
  if (id <= -kMaxIntegerId || id >= kMaxIntegerId) {
    *out += pair.ToJson().Dump();
    return;
  }
  out->append("{\"category\":");
  json::AppendEscaped(CategoryName(pair.category), out);
  out->append(",\"id\":");
  char digits[24];
  const char* digits_end =
      std::to_chars(digits, digits + sizeof(digits), id).ptr;
  out->append(digits, static_cast<size_t>(digits_end - digits));
  out->append(",\"input\":");
  json::AppendEscaped(pair.input, out);
  out->append(",\"instruction\":");
  json::AppendEscaped(pair.instruction, out);
  out->append(",\"output\":");
  json::AppendEscaped(pair.output, out);
  out->push_back('}');
}

void AppendRevisionJson(const InstructionPair& original,
                        const InstructionPair& revised, std::string* out) {
  out->append("{\"original\":");
  AppendPairJson(original, out);
  out->append(",\"revised\":");
  AppendPairJson(revised, out);
  out->push_back('}');
}

bool DecodePairJson(std::string_view line, const json::ParseLimits& limits,
                    InstructionPair* pair) {
  if (!ShapeWithinLimits(limits, line.size(), 1, kPairValues)) return false;
  CanonicalDecoder decoder(line, limits);
  return decoder.Pair(pair) && decoder.AtEnd();
}

bool DecodeRevisionJson(std::string_view line,
                        const json::ParseLimits& limits,
                        InstructionPair* original, InstructionPair* revised) {
  if (!ShapeWithinLimits(limits, line.size(), 2, kRevisionValues)) {
    return false;
  }
  CanonicalDecoder decoder(line, limits);
  return decoder.Literal("{\"original\":") && decoder.Pair(original) &&
         decoder.Literal(",\"revised\":") && decoder.Pair(revised) &&
         decoder.Literal("}") && decoder.AtEnd();
}

Result<std::vector<InstructionPair>> ReadPairLines(
    std::string_view text, const json::ParseLimits& limits,
    json::LineFailureMode mode) {
  std::vector<InstructionPair> pairs;
  Status schema_error;
  const Status lines = json::ForEachLine(
      text, limits, mode, [&](std::string_view line) -> Status {
        InstructionPair& pair = pairs.emplace_back();
        if (DecodePairJson(line, limits, &pair)) return Status::OK();
        const Result<json::Value> value = json::Parse(line, limits);
        if (!value.ok()) {
          pairs.pop_back();
          return value.status();
        }
        PairFromDom(*value, &pair, &schema_error);
        return Status::OK();
      });
  COACHLM_RETURN_NOT_OK(lines);
  COACHLM_RETURN_NOT_OK(schema_error);
  return pairs;
}

Result<RevisionDataset> ReadRevisionLines(std::string_view text,
                                          const json::ParseLimits& limits) {
  RevisionDataset records;
  Status schema_error;
  const Status lines = json::ForEachLine(
      text, limits, json::LineFailureMode::kStrict,
      [&](std::string_view line) -> Status {
        RevisionRecord& record = records.emplace_back();
        if (DecodeRevisionJson(line, limits, &record.original,
                               &record.revised)) {
          return Status::OK();
        }
        const Result<json::Value> value = json::Parse(line, limits);
        if (!value.ok()) {
          records.pop_back();
          return value.status();
        }
        PairFromDom(value->At("original"), &record.original, &schema_error);
        PairFromDom(value->At("revised"), &record.revised, &schema_error);
        return Status::OK();
      });
  COACHLM_RETURN_NOT_OK(lines);
  COACHLM_RETURN_NOT_OK(schema_error);
  return records;
}

}  // namespace coachlm
