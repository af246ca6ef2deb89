#ifndef COACHLM_JSON_JSONL_H_
#define COACHLM_JSON_JSONL_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "json/json.h"

namespace coachlm {
namespace json {

/// \brief Reads a whole file into a string. A file with a size is read in
/// one call into a buffer of that size; one without (a FIFO) is drained
/// through the stream.
[[nodiscard]] Result<std::string> ReadFile(const std::string& path);

/// \brief Reads a whole file into a string, rejecting files larger than
/// \p max_bytes with kResourceExhausted *before* buffering any content —
/// the size is checked from the open stream, so a multi-GB artifact never
/// reaches memory.
[[nodiscard]] Result<std::string> ReadFileLimited(const std::string& path,
                                    size_t max_bytes);

/// \brief Writes \p content to \p path, replacing any existing file.
[[nodiscard]] Status WriteFile(const std::string& path, const std::string& content);

/// \brief Detail channel of ParseLinesRecoverable.
struct ParseLinesInfo {
  /// Byte offset where a torn (unterminated, unparseable) final line
  /// begins; std::string::npos when the document ends cleanly.
  size_t truncated_offset = static_cast<size_t>(-1);

  bool truncated() const {
    return truncated_offset != static_cast<size_t>(-1);
  }
};

/// \brief What a JSONL line loop does with a line that fails to parse.
enum class LineFailureMode {
  /// Fail the whole document: "line N: ..." keeps the line's status code;
  /// an unterminated final line reports its byte offset instead.
  kStrict,
  /// Drop the line and count it.
  kSkipInvalid,
  /// Like kStrict, except an unterminated final line ends the document
  /// cleanly and its byte offset goes to ParseLinesInfo.
  kRecoverTornTail,
};

/// \brief The one JSONL line splitter every line reader shares.
///
/// Splits \p text on '\n', trims trailing CR and spaces, and skips empty
/// lines. A line longer than limits.max_record_bytes fails with
/// kResourceExhausted without reaching \p parse_line; every other line is
/// handed to it. A non-OK status from \p parse_line is that line's parse
/// failure, handled per \p mode. \p num_invalid and \p info (either may be
/// null) receive the kSkipInvalid count and the kRecoverTornTail offset.
[[nodiscard]] Status ForEachLine(
    std::string_view text, const ParseLimits& limits, LineFailureMode mode,
    const std::function<Status(std::string_view line)>& parse_line,
    size_t* num_invalid = nullptr, ParseLinesInfo* info = nullptr);

/// \brief Parses a JSON-Lines document (one JSON value per non-empty line).
///
/// When \p skip_invalid is true, malformed lines are dropped and counted in
/// \p num_invalid (may be null); otherwise the first malformed line fails
/// the whole parse. The tolerant mode mirrors the platform's handling of
/// noisy production logs (Section IV-A).
///
/// A malformed *final* line that is missing its newline terminator is a
/// crash artifact (a writer died mid-append), not corruption: strict mode
/// reports it with its byte offset so callers can recover the intact
/// prefix via ParseLinesRecoverable instead of discarding the whole file.
/// Every line is parsed under \p limits; a line longer than
/// limits.max_record_bytes is rejected (kResourceExhausted) without being
/// parsed at all. In strict mode the wrapping "line N:" status preserves
/// the underlying code (kResourceExhausted / kOutOfRange /
/// kInvalidArgument / kParseError) so quarantine records stay typed.
[[nodiscard]] Result<std::vector<Value>> ParseLines(const std::string& text,
                                      const ParseLimits& limits,
                                      bool skip_invalid = false,
                                      size_t* num_invalid = nullptr);

/// \brief ParseLines under the process-wide ParseLimits::Default().
[[nodiscard]] Result<std::vector<Value>> ParseLines(const std::string& text,
                                      bool skip_invalid = false,
                                      size_t* num_invalid = nullptr);

/// \brief Like strict ParseLines, but treats a torn final line — the
/// signature of a writer killed mid-append — as a recoverable condition:
/// the values of every complete line are returned and \p info (may be
/// null) reports the byte offset where the torn tail begins, so a resuming
/// writer can truncate the file there and continue. Malformed lines that
/// *are* newline-terminated still fail the parse: those are corruption,
/// not a crash artifact.
[[nodiscard]] Result<std::vector<Value>> ParseLinesRecoverable(const std::string& text,
                                                 ParseLinesInfo* info);

/// \brief ParseLinesRecoverable under explicit \p limits.
[[nodiscard]] Result<std::vector<Value>> ParseLinesRecoverable(const std::string& text,
                                                 const ParseLimits& limits,
                                                 ParseLinesInfo* info);

/// \brief Loads and parses a JSONL file under the process-wide limits:
/// the file itself is size-capped by max_input_bytes (via
/// ReadFileLimited) and each line by max_record_bytes.
[[nodiscard]] Result<std::vector<Value>> LoadJsonl(const std::string& path,
                                     bool skip_invalid = false,
                                     size_t* num_invalid = nullptr);

/// \brief Loads a JSONL file tolerating a torn final line (see
/// ParseLinesRecoverable).
[[nodiscard]] Result<std::vector<Value>> LoadJsonlRecoverable(const std::string& path,
                                                ParseLinesInfo* info);

/// \brief Serializes values one-per-line and writes them to \p path.
[[nodiscard]] Status SaveJsonl(const std::string& path, const std::vector<Value>& values);

}  // namespace json
}  // namespace coachlm

#endif  // COACHLM_JSON_JSONL_H_
