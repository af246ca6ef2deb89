#include "serve/http.h"

#include <algorithm>
#include <cstdlib>

#include "json/json.h"
#include "text/ascii.h"

namespace coachlm {
namespace serve {
namespace {

const std::string kEmpty;

std::string ToLower(std::string text) {
  for (char& c : text) c = ascii::ToLower(c);
  return text;
}

std::string Trim(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && (text[begin] == ' ' || text[begin] == '\t')) ++begin;
  while (end > begin &&
         (text[end - 1] == ' ' || text[end - 1] == '\t' ||
          text[end - 1] == '\r')) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool IsToken(const std::string& text) {
  if (text.empty()) return false;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (u <= ' ' || u >= 127) return false;
  }
  return true;
}

}  // namespace

const std::string& HttpRequest::Header(
    const std::string& lowercase_name) const {
  const auto it = headers.find(lowercase_name);
  return it == headers.end() ? kEmpty : it->second;
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default:  return "Unknown";
  }
}

int HttpStatusFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kResourceExhausted:
      return 413;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kNotImplemented:
      return 501;
    case StatusCode::kCancelled:
      return 503;
    default:
      return 500;
  }
}

std::string HttpErrorBody(const Status& status) {
  json::Object error;
  error["code"] = json::Value(StatusCodeToString(status.code()));
  error["message"] = json::Value(status.message());
  json::Object root;
  root["error"] = json::Value(std::move(error));
  return json::Value(std::move(root)).Dump();
}

std::string HttpResponse::Serialize() const {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    HttpReasonPhrase(status) + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  for (const auto& [name, value] : headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

HttpRequestParser::HttpRequestParser(HttpLimits limits) : limits_(limits) {}

size_t HttpRequestParser::remaining_body_bytes() const {
  if (!head_complete_ || complete_) return 0;
  return body_expected_ - request_.body.size();
}

Status HttpRequestParser::Feed(const char* data, size_t len) {
  if (!error_.ok()) return error_;
  if (complete_) {
    error_ = Status::InvalidArgument(
        "http: bytes after a complete request (one request per connection)");
    return error_;
  }
  size_t pos = 0;
  if (!head_complete_) {
    buffer_.append(data, len);
    // Budget the raw head: request line + all header bytes, pre-parse, so a
    // peer streaming an endless header line cannot grow the buffer.
    if (buffer_.size() > limits_.max_request_line_bytes +
                             limits_.max_header_bytes) {
      error_ = Status::ResourceExhausted(
          "http: request head exceeds " +
          std::to_string(limits_.max_request_line_bytes +
                         limits_.max_header_bytes) +
          " bytes");
      return error_;
    }
    error_ = ParseHead();
    if (!error_.ok()) return error_;
    if (!head_complete_) return Status::OK();
    // ParseHead consumed the head in-place; what is left is body prefix.
    pos = 0;
    len = buffer_.size();
    data = buffer_.data();
  }
  const size_t want = body_expected_ - request_.body.size();
  const size_t take = std::min(want, len - pos);
  request_.body.append(data + pos, take);
  if (pos + take < len) {
    error_ = Status::InvalidArgument(
        "http: " + std::to_string(len - pos - take) +
        " bytes past declared Content-Length");
    return error_;
  }
  buffer_.clear();
  if (request_.body.size() == body_expected_) complete_ = true;
  return Status::OK();
}

Status HttpRequestParser::ParseHead() {
  size_t line_start = 0;
  while (true) {
    const size_t nl = buffer_.find('\n', line_start);
    if (nl == std::string::npos) {
      // Partial line; keep only the unconsumed tail and wait for bytes.
      buffer_.erase(0, line_start);
      if (request_.method.empty() &&
          buffer_.size() > limits_.max_request_line_bytes) {
        return Status::ResourceExhausted(
            "http: request line exceeds " +
            std::to_string(limits_.max_request_line_bytes) + " bytes");
      }
      return Status::OK();
    }
    std::string line = buffer_.substr(line_start, nl - line_start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    line_start = nl + 1;
    if (request_.method.empty()) {
      if (line.size() > limits_.max_request_line_bytes) {
        return Status::ResourceExhausted(
            "http: request line exceeds " +
            std::to_string(limits_.max_request_line_bytes) + " bytes");
      }
      COACHLM_RETURN_NOT_OK(ParseRequestLine(line));
      continue;
    }
    if (line.empty()) {
      // Blank line ends the head; the remainder of buffer_ is body prefix.
      buffer_.erase(0, line_start);
      COACHLM_RETURN_NOT_OK(FinishHead());
      head_complete_ = true;
      return Status::OK();
    }
    COACHLM_RETURN_NOT_OK(ParseHeaderLine(line));
  }
}

Status HttpRequestParser::ParseRequestLine(const std::string& line) {
  const size_t first = line.find(' ');
  const size_t second =
      first == std::string::npos ? std::string::npos
                                 : line.find(' ', first + 1);
  if (first == std::string::npos || second == std::string::npos) {
    return Status::InvalidArgument("http: malformed request line '" +
                                   line.substr(0, 64) + "'");
  }
  request_.method = line.substr(0, first);
  request_.target = line.substr(first + 1, second - first - 1);
  const std::string version = line.substr(second + 1);
  if (!IsToken(request_.method) || !IsToken(request_.target)) {
    return Status::InvalidArgument("http: malformed request line '" +
                                   line.substr(0, 64) + "'");
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return Status::InvalidArgument("http: unsupported version '" + version +
                                   "'");
  }
  return Status::OK();
}

Status HttpRequestParser::ParseHeaderLine(const std::string& line) {
  if (request_.headers.size() >= limits_.max_headers) {
    return Status::ResourceExhausted(
        "http: more than " + std::to_string(limits_.max_headers) +
        " headers");
  }
  const size_t colon = line.find(':');
  if (colon == std::string::npos || colon == 0) {
    return Status::InvalidArgument("http: malformed header '" +
                                   line.substr(0, 64) + "'");
  }
  const std::string name = ToLower(Trim(line.substr(0, colon)));
  if (!IsToken(name)) {
    return Status::InvalidArgument("http: malformed header name '" +
                                   name.substr(0, 64) + "'");
  }
  // Last occurrence wins; the endpoints here never rely on repeated headers.
  request_.headers[name] = Trim(line.substr(colon + 1));
  return Status::OK();
}

Status HttpRequestParser::FinishHead() {
  if (request_.headers.count("transfer-encoding") != 0) {
    return Status::NotImplemented(
        "http: Transfer-Encoding is not supported; send Content-Length");
  }
  const std::string& length = request_.Header("content-length");
  if (length.empty()) {
    body_expected_ = 0;
  } else {
    char* end = nullptr;
    const unsigned long long parsed =  // NOLINT(runtime/int)
        std::strtoull(length.c_str(), &end, 10);
    if (end == length.c_str() || *end != '\0' ||
        length.find('-') != std::string::npos) {
      return Status::InvalidArgument("http: malformed Content-Length '" +
                                     length.substr(0, 64) + "'");
    }
    if (parsed > limits_.max_body_bytes) {
      return Status::ResourceExhausted(
          "http: body of " + std::to_string(parsed) + " bytes exceeds " +
          std::to_string(limits_.max_body_bytes) + " byte limit");
    }
    body_expected_ = static_cast<size_t>(parsed);
  }
  if (complete_) return Status::OK();
  if (body_expected_ == 0) complete_ = true;
  return Status::OK();
}

Result<HttpRequest> ParseHttpRequest(const std::string& raw,
                                     const HttpLimits& limits) {
  HttpRequestParser parser(limits);
  COACHLM_RETURN_NOT_OK(parser.Feed(raw.data(), raw.size()));
  if (!parser.complete()) {
    return Status::InvalidArgument("http: truncated request");
  }
  return parser.request();
}

Result<ParsedHttpResponse> ParseHttpResponse(const std::string& raw) {
  ParsedHttpResponse response;
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::InvalidArgument("http: truncated response head");
  }
  size_t line_start = 0;
  bool first = true;
  while (line_start < head_end) {
    size_t nl = raw.find("\r\n", line_start);
    if (nl == std::string::npos || nl > head_end) nl = head_end;
    const std::string line = raw.substr(line_start, nl - line_start);
    line_start = nl + 2;
    if (first) {
      first = false;
      // "HTTP/1.1 <code> <reason>"
      const size_t space = line.find(' ');
      if (space == std::string::npos) {
        return Status::InvalidArgument("http: malformed status line '" +
                                       line.substr(0, 64) + "'");
      }
      char* end = nullptr;
      response.status =
          static_cast<int>(std::strtol(line.c_str() + space + 1, &end, 10));
      if (end == line.c_str() + space + 1 || response.status < 100 ||
          response.status > 599) {
        return Status::InvalidArgument("http: malformed status code in '" +
                                       line.substr(0, 64) + "'");
      }
      continue;
    }
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    response.headers[ToLower(Trim(line.substr(0, colon)))] =
        Trim(line.substr(colon + 1));
  }
  response.body = raw.substr(head_end + 4);
  const auto it = response.headers.find("content-length");
  if (it != response.headers.end()) {
    const size_t declared =
        static_cast<size_t>(std::strtoull(it->second.c_str(), nullptr, 10));
    if (response.body.size() < declared) {
      return Status::InvalidArgument("http: truncated response body");
    }
    response.body.resize(declared);
  }
  return response;
}

}  // namespace serve
}  // namespace coachlm
