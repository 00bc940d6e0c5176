#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "stalecert/net/http.hpp"

namespace stalecert::net {

/// Incremental HTTP/1.1 request codec (server side): feed bytes as they
/// arrive off the wire, take one parsed request at a time. The framing
/// rules are exactly the serving subset: a request head terminated by
/// CRLFCRLF and bounded by `max_request_bytes`, bodies sized by
/// Content-Length only (bounded like the head, except POST bodies: see
/// kMaxPostBodyBytes), no chunked encoding. One codec per
/// connection; take_request() re-arms it for the next keep-alive (possibly
/// pipelined) request, preserving any bytes already buffered beyond the
/// current message.
class Http1RequestCodec {
 public:
  enum class State {
    kHead,      // waiting for (more of) a request head
    kBody,      // head parsed, waiting for Content-Length body bytes
    kComplete,  // a full request is ready — call take_request()
    kError,     // protocol violation — send error_response() and close
  };

  /// POST bodies may reach max(max_request_bytes, kMaxPostBodyBytes), so
  /// POST /ingest takes whole .scwd deltas. The largest world_gen writes
  /// (seed 20230512, 30 days past the horizon): daily deltas 221 KB
  /// (`small`) and 3.31 MB (`default`), 30-day slices 352 KB and 4.01 MB.
  /// 16 MiB is 4x the largest. Wider slices (a year of `default` is
  /// 53.5 MB) go through `?path=` or the feed directory instead.
  static constexpr std::size_t kMaxPostBodyBytes = std::size_t{16} << 20;

  explicit Http1RequestCodec(std::size_t max_request_bytes);

  /// Appends bytes and advances the parse as far as they allow. Feeding an
  /// empty view just re-runs the state machine (useful after take_request
  /// when pipelined bytes may already complete the next message).
  State consume(std::string_view bytes);

  [[nodiscard]] State state() const { return state_; }

  /// True while not a single byte of the next request has been buffered —
  /// the keep-alive idle state. The distinction drives the server's two
  /// deadlines: idle connections get the (long) idle timeout, connections
  /// with a partial head get the (short) slowloris header timeout.
  [[nodiscard]] bool idle() const {
    return state_ == State::kHead && buffer_.empty();
  }

  /// kComplete only: moves the parsed request out (body attached,
  /// parse_duration filled) and re-arms for the next message. state()
  /// afterwards already reflects any pipelined leftover — callers loop
  /// while it is kComplete again.
  HttpRequest take_request();

  /// kError only: the 400 response the server must write before closing.
  [[nodiscard]] const HttpResponse& error_response() const { return error_; }

 private:
  State advance();
  State fail(std::string reason);

  std::size_t max_request_bytes_;
  std::string buffer_;
  std::size_t scanned_ = 0;  // CRLFCRLF search resumes here, never rescans
  State state_ = State::kHead;
  std::optional<HttpRequest> request_;
  std::size_t content_length_ = 0;
  HttpResponse error_;
};

/// Incremental HTTP/1.1 response codec (client side): a status line and
/// headers, then exactly Content-Length body bytes. A response to a HEAD
/// request advertises a Content-Length but carries no body; tell the codec
/// with `head_only`.
class Http1ResponseCodec {
 public:
  enum class State {
    kHead,      // waiting for (more of) the response head
    kBody,      // head parsed, waiting for Content-Length body bytes
    kComplete,  // a full response is ready — call take_response()
    kError,     // unparseable status line — abandon the connection
  };

  struct Response {
    int status = 0;
    std::string content_type;
    std::string body;
    /// Server sent "Connection: close": this connection is spent and must
    /// not go back into a keep-alive pool.
    bool close = false;
  };

  explicit Http1ResponseCodec(bool head_only = false);

  State consume(std::string_view bytes);
  [[nodiscard]] State state() const { return state_; }

  /// kComplete only: moves the response out and re-arms for the next
  /// response on the same keep-alive connection.
  Response take_response(bool next_head_only = false);

 private:
  State advance();

  bool head_only_;
  std::string buffer_;
  std::size_t scanned_ = 0;
  State state_ = State::kHead;
  Response response_;
  std::size_t content_length_ = 0;
};

}  // namespace stalecert::net
