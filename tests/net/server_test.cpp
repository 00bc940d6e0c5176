// net::HttpServer end-to-end over real sockets: protocol parity (keep-alive,
// pipelining, HEAD, oversized requests), the two read deadlines (slowloris
// 408, silent idle close), and concurrent load across reactor threads —
// the latter is the test TSan watches in CI.
#include "stalecert/net/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "stalecert/net/client.hpp"
#include "stalecert/net/codec.hpp"

namespace stalecert::net {
namespace {

using namespace std::chrono_literals;

/// A deliberately dumb blocking client: sends exactly the bytes it is told
/// to, reads whatever comes back. The server's deadline behavior can only
/// be observed from a client that misbehaves, which HttpClient refuses to.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const timeval tv{10, 0};  // recv never wedges the test binary
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& bytes) const {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// send() that tolerates a peer close (false instead of a test failure) —
  /// for tests where the server closing mid-stream IS the expected outcome.
  bool try_send(const std::string& bytes) const {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Reads until the peer closes (or the 10s guard expires).
  std::string read_to_eof() const {
    std::string out;
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
  }

  /// Reads until `marker` appears in the accumulated bytes.
  std::string read_until(const std::string& marker) const {
    std::string out;
    char chunk[4096];
    while (out.find(marker) == std::string::npos) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
};

HttpServer::Options test_options() {
  HttpServer::Options options;
  options.port = 0;
  options.threads = 2;
  return options;
}

HttpResponse echo_handler(const HttpRequest& request) {
  return {200, "text/plain", request.method + " " + request.path + "\n"};
}

TEST(NetServerTest, ServesKeepAliveRequestsOnOneConnection) {
  HttpServer server(test_options(), echo_handler);
  server.start();
  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 3; ++i) {
    const auto result = client.get("/ping");
    EXPECT_EQ(result.status, 200);
    EXPECT_EQ(result.body, "GET /ping\n");
  }
  EXPECT_EQ(server.requests_served(), 3u);
  server.stop();
}

TEST(NetServerTest, PipelinedRequestsAreAnsweredInOrder) {
  HttpServer server(test_options(), echo_handler);
  server.start();
  RawClient client(server.port());
  client.send(
      "GET /one HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /two HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /three HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  const std::string reply = client.read_to_eof();
  const std::size_t one = reply.find("GET /one");
  const std::size_t two = reply.find("GET /two");
  const std::size_t three = reply.find("GET /three");
  ASSERT_NE(one, std::string::npos) << reply;
  ASSERT_NE(two, std::string::npos) << reply;
  ASSERT_NE(three, std::string::npos) << reply;
  EXPECT_LT(one, two);
  EXPECT_LT(two, three);
  server.stop();
}

TEST(NetServerTest, OversizedRequestGets400AndClose) {
  HttpServer::Options options = test_options();
  options.max_request_bytes = 256;
  HttpServer server(options, echo_handler);
  server.start();
  RawClient client(server.port());
  client.send("GET /x HTTP/1.1\r\nHost: " + std::string(512, 'a') + "\r\n\r\n");
  const std::string reply = client.read_to_eof();  // server must close
  EXPECT_NE(reply.find("400 Bad Request"), std::string::npos) << reply;
  EXPECT_NE(reply.find("request too large"), std::string::npos) << reply;
  server.stop();
}

TEST(NetServerTest, PostBodyAboveTheBoundGets400AndClose) {
  // A default server takes POST bodies past its head bound (.scwd deltas),
  // but refuses a Content-Length above kMaxPostBodyBytes before buffering.
  HttpServer server(test_options(), echo_handler);
  server.start();
  RawClient client(server.port());
  client.send("POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: " +
              std::to_string(Http1RequestCodec::kMaxPostBodyBytes + 1) +
              "\r\n\r\n");
  const std::string reply = client.read_to_eof();  // server must close
  EXPECT_NE(reply.find("400 Bad Request"), std::string::npos) << reply;
  EXPECT_NE(reply.find("bad or oversized content-length"), std::string::npos)
      << reply;
  server.stop();
}

TEST(NetServerTest, SlowlorisGets408WithinHeaderTimeout) {
  HttpServer::Options options = test_options();
  options.header_timeout = 200ms;
  HttpServer server(options, echo_handler);
  server.start();
  RawClient slow(server.port());
  slow.send("GET /never HTTP/1.1\r\nHost:");  // partial head, then silence
  const auto start = std::chrono::steady_clock::now();
  const std::string reply = slow.read_to_eof();
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_NE(reply.find("408 Request Timeout"), std::string::npos) << reply;
  EXPECT_NE(reply.find("request header timeout"), std::string::npos) << reply;
  EXPECT_LT(waited, 5s);  // fired by the deadline, not the 10s recv guard
  server.stop();
}

TEST(NetServerTest, TricklingBytesDoesNotExtendHeaderDeadline) {
  // The classic attack sends one byte per interval to keep a naive
  // last-activity timer forever fresh; the deadline must anchor at the
  // FIRST byte of the partial request.
  HttpServer::Options options = test_options();
  options.header_timeout = 300ms;
  HttpServer server(options, echo_handler);
  server.start();
  RawClient slow(server.port());
  const auto start = std::chrono::steady_clock::now();
  std::string reply;
  std::thread reader([&] { reply = slow.read_to_eof(); });
  for (int i = 0; i < 20; ++i) {
    ::usleep(100 * 1000);  // 100ms: each write alone is under the deadline
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (elapsed > 2s) break;
    // The send failing is the deadline doing its job: the server already
    // answered 408 and closed, so the trickle bounces off.
    if (!slow.try_send("X")) break;
  }
  reader.join();
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_NE(reply.find("408 Request Timeout"), std::string::npos) << reply;
  EXPECT_LT(waited, 3s);
  server.stop();
}

TEST(NetServerTest, StalledClientDoesNotBlockAHealthyOne) {
  HttpServer::Options options = test_options();
  options.threads = 1;  // the stall would be fatal if anything blocked
  options.header_timeout = 5s;
  HttpServer server(options, echo_handler);
  server.start();
  RawClient stalled(server.port());
  stalled.send("GET /stall HTTP/1.1\r\nHost:");  // holds a partial request
  HttpClient healthy("127.0.0.1", server.port());
  const auto start = std::chrono::steady_clock::now();
  const auto result = healthy.get("/fast");
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.status, 200);
  EXPECT_LT(waited, 2s);  // served immediately, not behind the stall
  server.stop();
}

TEST(NetServerTest, IdleKeepAliveConnectionIsClosedSilently) {
  HttpServer::Options options = test_options();
  options.idle_timeout = 200ms;
  HttpServer server(options, echo_handler);
  server.start();
  RawClient client(server.port());
  client.send("GET /once HTTP/1.1\r\nHost: x\r\n\r\n");
  const std::string first = client.read_until("GET /once\n");
  EXPECT_NE(first.find("200 OK"), std::string::npos);
  // Now go idle; the server must close without writing anything more.
  const std::string rest = client.read_to_eof();
  EXPECT_EQ(rest, "");
  server.stop();
}

TEST(NetServerTest, HeadOmitsBodyButKeepsContentLength) {
  HttpServer server(test_options(), [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "0123456789"};
  });
  server.start();
  RawClient client(server.port());
  client.send("HEAD /x HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  const std::string reply = client.read_to_eof();
  EXPECT_NE(reply.find("Content-Length: 10"), std::string::npos) << reply;
  EXPECT_EQ(reply.find("0123456789"), std::string::npos) << reply;
  server.stop();
}

TEST(NetServerTest, RejectedMethodKeepsTheConnectionUsable) {
  HttpServer server(test_options(), echo_handler);
  server.start();
  RawClient client(server.port());
  client.send("PUT /x HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc");
  const std::string rejection = client.read_until("\n");
  EXPECT_NE(rejection.find("405"), std::string::npos) << rejection;
  // The body was drained and the connection stayed open: a follow-up GET
  // on the same socket must work.
  client.send("GET /after HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  const std::string reply = client.read_to_eof();
  EXPECT_NE(reply.find("GET /after"), std::string::npos) << reply;
  server.stop();
}

TEST(NetServerTest, ThrowingHandlerYields500AndKeepsServing) {
  std::atomic<int> calls{0};
  HttpServer server(test_options(), [&](const HttpRequest& request) {
    ++calls;
    if (request.path == "/boom") throw std::runtime_error("kaboom");
    return echo_handler(request);
  });
  server.start();
  HttpClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.get("/boom").status, 500);
  EXPECT_EQ(client.get("/fine").status, 200);
  EXPECT_EQ(calls.load(), 2);
  server.stop();
}

TEST(NetServerTest, ConcurrentClientsAcrossReactors) {
  // Many connections, many requests each, across 2 reactor threads. Run
  // under TSan in CI: the per-reactor connection tables must never be
  // touched off their loop thread.
  HttpServer server(test_options(), echo_handler);
  server.start();
  constexpr int kClients = 8;
  constexpr int kRequests = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &ok, c] {
      HttpClient client("127.0.0.1", server.port());
      for (int r = 0; r < kRequests; ++r) {
        const std::string path =
            "/c" + std::to_string(c) + "/r" + std::to_string(r);
        const auto result = client.get(path);
        if (result.status == 200 && result.body == "GET " + path + "\n") ++ok;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequests);
  EXPECT_EQ(server.requests_served(),
            static_cast<std::uint64_t>(kClients * kRequests));
  server.stop();
}

TEST(NetServerTest, StopDrainsAndStartIsRefusedAfterwards) {
  HttpServer server(test_options(), echo_handler);
  server.start();
  const std::uint16_t port = server.port();
  {
    HttpClient client("127.0.0.1", port);
    EXPECT_EQ(client.get("/x").status, 200);
  }
  server.stop();
  EXPECT_FALSE(server.running());
  // The port is released: connecting now must fail fast.
  EXPECT_THROW(http_get("127.0.0.1", port, "/x"), NetError);
}

}  // namespace
}  // namespace stalecert::net
