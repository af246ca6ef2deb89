#include "json/jsonl.h"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace coachlm {
namespace json {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  if (size_error) {
    // No size to take (a FIFO): drain the stream.
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) return Status::IoError("read failure on '" + path + "'");
    return std::move(buffer).str();
  }
  std::string out(static_cast<size_t>(size), '\0');
  in.read(out.data(), static_cast<std::streamsize>(out.size()));
  if (in.bad()) return Status::IoError("read failure on '" + path + "'");
  out.resize(static_cast<size_t>(in.gcount()));  // it may have shrunk since
  return out;
}

Result<std::string> ReadFileLimited(const std::string& path,
                                    size_t max_bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("cannot size '" + path + "'");
  if (static_cast<unsigned long long>(size) > max_bytes) {
    return Status::ResourceExhausted(
        "'" + path + "' is " + std::to_string(size) +
        " bytes, over the max_input_bytes=" + std::to_string(max_bytes) +
        " budget");
  }
  std::string out(static_cast<size_t>(size), '\0');
  in.seekg(0);
  in.read(out.empty() ? nullptr : &out[0], size);
  if (in.bad() || in.gcount() != size) {
    return Status::IoError("read failure on '" + path + "'");
  }
  return out;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << content;
  out.flush();
  if (!out) return Status::IoError("write failure on '" + path + "'");
  return Status::OK();
}

Status ForEachLine(
    std::string_view text, const ParseLimits& limits, LineFailureMode mode,
    const std::function<Status(std::string_view line)>& parse_line,
    size_t* num_invalid, ParseLinesInfo* info) {
  if (num_invalid != nullptr) *num_invalid = 0;
  if (info != nullptr) *info = ParseLinesInfo();
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t line_start = pos;
    size_t nl = text.find('\n', pos);
    // A line without its '\n' terminator is by construction the last one;
    // if it then fails to parse, it is a torn write, not corruption.
    const bool terminated = nl != std::string_view::npos;
    if (!terminated) nl = text.size();
    std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    // Trim trailing CR and spaces.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    if (line.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    // A line over the record budget is rejected without parsing it: the
    // line length alone is the violation.
    const Status parsed =
        line.size() > limits.max_record_bytes
            ? Status::ResourceExhausted(
                  "record of " + std::to_string(line.size()) +
                  " bytes exceeds max_record_bytes=" +
                  std::to_string(limits.max_record_bytes))
            : parse_line(line);
    if (parsed.ok()) continue;
    if (mode == LineFailureMode::kSkipInvalid) {
      if (num_invalid != nullptr) ++*num_invalid;
      continue;
    }
    if (!terminated) {
      if (mode == LineFailureMode::kRecoverTornTail) {
        if (info != nullptr) info->truncated_offset = line_start;
        return Status::OK();
      }
      return Status::ParseError(
          "truncated final line at byte offset " +
          std::to_string(line_start) +
          " (crash artifact; recoverable via ParseLinesRecoverable): " +
          parsed.message());
    }
    // Keep the underlying code (resource, range, argument, parse) so
    // quarantine records stay typed through the "line N:" wrapping.
    return Status(parsed.code(), "line " + std::to_string(line_no) + ": " +
                                     parsed.message());
  }
  return Status::OK();
}

namespace {

Result<std::vector<Value>> ParseLinesImpl(const std::string& text,
                                          const ParseLimits& limits,
                                          LineFailureMode mode,
                                          size_t* num_invalid,
                                          ParseLinesInfo* info) {
  std::vector<Value> values;
  COACHLM_RETURN_NOT_OK(ForEachLine(
      text, limits, mode,
      [&](std::string_view line) -> Status {
        COACHLM_ASSIGN_OR_RETURN(Value value, Parse(line, limits));
        values.push_back(std::move(value));
        return Status::OK();
      },
      num_invalid, info));
  return values;
}

}  // namespace

Result<std::vector<Value>> ParseLines(const std::string& text,
                                      const ParseLimits& limits,
                                      bool skip_invalid, size_t* num_invalid) {
  return ParseLinesImpl(text, limits,
                        skip_invalid ? LineFailureMode::kSkipInvalid
                                     : LineFailureMode::kStrict,
                        num_invalid, nullptr);
}

Result<std::vector<Value>> ParseLines(const std::string& text,
                                      bool skip_invalid, size_t* num_invalid) {
  return ParseLines(text, ParseLimits::Default(), skip_invalid, num_invalid);
}

Result<std::vector<Value>> ParseLinesRecoverable(const std::string& text,
                                                 const ParseLimits& limits,
                                                 ParseLinesInfo* info) {
  return ParseLinesImpl(text, limits, LineFailureMode::kRecoverTornTail,
                        nullptr, info);
}

Result<std::vector<Value>> ParseLinesRecoverable(const std::string& text,
                                                 ParseLinesInfo* info) {
  return ParseLinesRecoverable(text, ParseLimits::Default(), info);
}

Result<std::vector<Value>> LoadJsonl(const std::string& path,
                                     bool skip_invalid, size_t* num_invalid) {
  const ParseLimits& limits = ParseLimits::Default();
  COACHLM_ASSIGN_OR_RETURN(std::string text,
                           ReadFileLimited(path, limits.max_input_bytes));
  return ParseLines(text, limits, skip_invalid, num_invalid);
}

Result<std::vector<Value>> LoadJsonlRecoverable(const std::string& path,
                                                ParseLinesInfo* info) {
  const ParseLimits& limits = ParseLimits::Default();
  COACHLM_ASSIGN_OR_RETURN(std::string text,
                           ReadFileLimited(path, limits.max_input_bytes));
  return ParseLinesRecoverable(text, limits, info);
}

Status SaveJsonl(const std::string& path, const std::vector<Value>& values) {
  std::string out;
  for (const Value& v : values) {
    out += v.Dump();
    out += '\n';
  }
  return WriteFile(path, out);
}

}  // namespace json
}  // namespace coachlm
