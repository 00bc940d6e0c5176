#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "stalecert/net/http.hpp"
#include "stalecert/net/listener.hpp"

namespace stalecert::net {

/// HTTP/1.1 server on the epoll reactor: a net::Listener accepts into N
/// reactor threads, each connection is a nonblocking state machine
/// (incremental Http1RequestCodec parse -> handler -> queued write with
/// partial-write continuation), persistent connections per RFC 9112
/// defaults, and graceful drain on stop(): no new connections are
/// admitted, queued responses flush, and every reactor exits once its
/// last connection closed.
///
/// Two read deadlines defend the reactors: a connection that has sent
/// part of a request but not finished it within `header_timeout` gets
/// 408 + close (the slowloris guard), and a keep-alive connection idle
/// longer than `idle_timeout` is closed silently.
///
/// The handler runs on whichever reactor thread owns the connection, so
/// it must be thread-safe; it must also not block for long — a stalled
/// handler stalls every connection on that reactor.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  /// Optional post-write observability hook: invoked on the reactor thread
  /// once the response bytes went out, with the wall-clock the socket
  /// write took (queue to final byte accepted). Must be thread-safe.
  using RequestHook = std::function<void(
      const HttpRequest&, const HttpResponse&, std::chrono::nanoseconds)>;

  struct Options {
    std::string bind_address = "127.0.0.1";
    /// 0 picks an ephemeral port; read the outcome from port().
    std::uint16_t port = 0;
    unsigned threads = 4;
    /// Upper bound on one request head; longer heads get 400 + close.
    /// Bodies share this bound, except POST bodies (see
    /// Http1RequestCodec::kMaxPostBodyBytes).
    std::size_t max_request_bytes = 64 * 1024;
    /// Slowloris guard: a request begun but not fully received within
    /// this window gets 408 + close. 0 disables.
    std::chrono::milliseconds header_timeout{10'000};
    /// Keep-alive connections idle longer than this are closed silently.
    /// 0 disables.
    std::chrono::milliseconds idle_timeout{120'000};
  };

  HttpServer(Options options, Handler handler);
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;
  /// Stops the server if still running.
  ~HttpServer();

  /// Binds, listens, and spawns the reactors. Throws NetError when the
  /// address cannot be bound.
  void start();

  /// Installs the post-write hook. Call before start(); the hook runs
  /// concurrently on every reactor thread.
  void set_request_hook(RequestHook hook) { request_hook_ = std::move(hook); }

  /// The bound port (useful with Options::port == 0). Valid after start().
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool running() const { return running_.load(); }

  /// Total requests served so far (all reactors).
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_.load();
  }

  /// Graceful drain: stop accepting, flush in-flight responses, join the
  /// reactors. Idempotent.
  void stop();

 private:
  struct Connection;
  /// Per-reactor connection table, touched only on its loop thread — the
  /// request path takes no locks at all.
  struct Reactor {
    std::unordered_map<int, std::unique_ptr<Connection>> connections;
  };

  void on_accept(EventLoop& loop, unsigned loop_index, int fd);
  void on_io(EventLoop& loop, unsigned loop_index, int fd,
             std::uint32_t events);
  void do_read(EventLoop& loop, unsigned loop_index, int fd);
  void process(EventLoop& loop, unsigned loop_index, Connection& connection);
  bool write_some(EventLoop& loop, unsigned loop_index,
                  Connection& connection);
  void finish_exchange(Connection& connection);
  void arm_read_deadline(EventLoop& loop, unsigned loop_index,
                         Connection& connection);
  void on_header_timeout(EventLoop& loop, unsigned loop_index, int fd);
  void on_idle_timeout(EventLoop& loop, unsigned loop_index, int fd);
  void close_connection(EventLoop& loop, unsigned loop_index, int fd);
  void drain_reactor(EventLoop& loop, unsigned loop_index);

  Options options_;
  Handler handler_;
  RequestHook request_hook_;
  std::unique_ptr<Listener> listener_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> requests_served_{0};
};

}  // namespace stalecert::net
