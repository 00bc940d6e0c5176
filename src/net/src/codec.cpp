#include "stalecert/net/codec.hpp"

#include <algorithm>
#include <cstdlib>

#include "stalecert/util/strings.hpp"

namespace stalecert::net {

namespace {

/// Where to resume the CRLFCRLF scan after a miss: the terminator may
/// straddle the next read, so back up three bytes from the buffer end.
std::size_t resume_point(const std::string& buffer) {
  return buffer.size() > 3 ? buffer.size() - 3 : 0;
}

}  // namespace

// --- Request side ---------------------------------------------------------

Http1RequestCodec::Http1RequestCodec(std::size_t max_request_bytes)
    : max_request_bytes_(max_request_bytes) {}

Http1RequestCodec::State Http1RequestCodec::consume(std::string_view bytes) {
  if (state_ == State::kComplete || state_ == State::kError) return state_;
  buffer_.append(bytes.data(), bytes.size());
  return advance();
}

Http1RequestCodec::State Http1RequestCodec::fail(std::string reason) {
  error_ = HttpResponse{400, "text/plain", std::move(reason), {}, 0};
  state_ = State::kError;
  return state_;
}

Http1RequestCodec::State Http1RequestCodec::advance() {
  if (state_ == State::kHead) {
    const std::size_t head_end = buffer_.find("\r\n\r\n", scanned_);
    if (head_end == std::string::npos) {
      // Too large whether the terminator never comes or the head that did
      // arrive already blows the limit.
      if (buffer_.size() > max_request_bytes_) {
        return fail("request too large\n");
      }
      scanned_ = resume_point(buffer_);
      return state_;
    }
    if (head_end + 4 > max_request_bytes_) return fail("request too large\n");

    const auto parse_start = std::chrono::steady_clock::now();
    request_ = parse_request(
        std::string_view(buffer_).substr(0, head_end + 4));
    if (!request_) return fail("malformed request\n");
    request_->parse_duration = std::chrono::steady_clock::now() - parse_start;
    buffer_.erase(0, head_end + 4);
    scanned_ = 0;

    // Body framing is Content-Length only, bounded so a client cannot make
    // the server buffer arbitrary bytes: POST bodies (uploads such as
    // .scwd deltas) by kMaxPostBodyBytes, every other body like the head.
    content_length_ = 0;
    const std::size_t max_body =
        request_->method == "POST"
            ? std::max(max_request_bytes_, kMaxPostBodyBytes)
            : max_request_bytes_;
    if (const auto it = request_->headers.find("content-length");
        it != request_->headers.end()) {
      char* end = nullptr;
      const unsigned long long parsed =
          std::strtoull(it->second.c_str(), &end, 10);
      if (end == it->second.c_str() || *end != '\0' || parsed > max_body) {
        return fail("bad or oversized content-length\n");
      }
      content_length_ = static_cast<std::size_t>(parsed);
    }
    state_ = State::kBody;
  }

  if (state_ == State::kBody && buffer_.size() >= content_length_) {
    request_->body = buffer_.substr(0, content_length_);
    buffer_.erase(0, content_length_);
    state_ = State::kComplete;
  }
  return state_;
}

HttpRequest Http1RequestCodec::take_request() {
  HttpRequest request = *std::move(request_);
  request_.reset();
  content_length_ = 0;
  state_ = State::kHead;
  scanned_ = 0;
  advance();  // pipelined leftover may already complete the next message
  return request;
}

// --- Response side --------------------------------------------------------

Http1ResponseCodec::Http1ResponseCodec(bool head_only)
    : head_only_(head_only) {}

Http1ResponseCodec::State Http1ResponseCodec::consume(std::string_view bytes) {
  if (state_ == State::kComplete || state_ == State::kError) return state_;
  buffer_.append(bytes.data(), bytes.size());
  return advance();
}

Http1ResponseCodec::State Http1ResponseCodec::advance() {
  if (state_ == State::kHead) {
    const std::size_t head_end = buffer_.find("\r\n\r\n", scanned_);
    if (head_end == std::string::npos) {
      scanned_ = resume_point(buffer_);
      return state_;
    }
    const std::string head = buffer_.substr(0, head_end);
    const auto lines = util::split(head, '\n');
    // Status line: "HTTP/1.1 200 OK".
    const auto parts = util::split(std::string(util::trim(lines.empty() ? "" : lines[0])), ' ');
    if (parts.size() < 2 || parts[0].rfind("HTTP/", 0) != 0 ||
        parts[1].empty() ||
        parts[1].find_first_not_of("0123456789") != std::string::npos) {
      state_ = State::kError;
      return state_;
    }
    response_.status = std::atoi(parts[1].c_str());
    content_length_ = 0;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      const std::string line(util::trim(lines[i]));
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      const std::string name = util::to_lower(line.substr(0, colon));
      const std::string value(util::trim(line.substr(colon + 1)));
      if (name == "content-length") {
        content_length_ = static_cast<std::size_t>(std::atoll(value.c_str()));
      } else if (name == "content-type") {
        response_.content_type = value;
      } else if (name == "connection" && util::to_lower(value) == "close") {
        response_.close = true;
      }
    }
    if (head_only_) content_length_ = 0;
    buffer_.erase(0, head_end + 4);
    scanned_ = 0;
    state_ = State::kBody;
  }

  if (state_ == State::kBody && buffer_.size() >= content_length_) {
    response_.body = buffer_.substr(0, content_length_);
    buffer_.erase(0, content_length_);
    state_ = State::kComplete;
  }
  return state_;
}

Http1ResponseCodec::Response Http1ResponseCodec::take_response(
    bool next_head_only) {
  Response response = std::move(response_);
  response_ = Response{};
  head_only_ = next_head_only;
  content_length_ = 0;
  state_ = State::kHead;
  scanned_ = 0;
  advance();
  return response;
}

}  // namespace stalecert::net
