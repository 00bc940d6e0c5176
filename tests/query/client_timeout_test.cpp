// HttpClient deadline semantics: a server that accepts but never answers
// raises NetTimeoutError (exit 4 territory for stalecert_query, "mark
// the shard slow" for the router), while a closed port raises plain
// NetError ("down"). The distinction is load-bearing — see the exception
// hierarchy note in http.hpp.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "stalecert/net/client.hpp"
#include "stalecert/net/http.hpp"

namespace stalecert::query {
namespace {

/// A listening socket that accepts connections but never reads or writes.
class SilentServer {
 public:
  SilentServer() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::listen(fd_, 4), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~SilentServer() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

TEST(HttpClientTimeoutTest, SilentServerRaisesTimeoutNotPlainError) {
  SilentServer server;
  net::HttpClient client("127.0.0.1", server.port(),
                         std::chrono::milliseconds(100));
  EXPECT_THROW(client.get("/healthz"), net::NetTimeoutError);
}

TEST(HttpClientTimeoutTest, ZeroTimeoutKeepsConnectWorking) {
  // Timeout 0 = block indefinitely; the connection itself must still work
  // against a live listener (no spurious deadline on the connect path).
  SilentServer server;
  net::HttpClient client("127.0.0.1", server.port());
  // No request issued: a hang here would be forever. Construction
  // succeeding is the assertion.
  SUCCEED();
}

TEST(HttpClientTimeoutTest, RefusedConnectionRaisesPlainQueryError) {
  // Grab an ephemeral port, then close the listener: connecting to it now
  // refuses. That must surface as NetError, never NetTimeoutError.
  std::uint16_t port = 0;
  {
    SilentServer doomed;
    port = doomed.port();
  }
  try {
    net::HttpClient client("127.0.0.1", port, std::chrono::milliseconds(100));
    FAIL() << "connect to closed port " << port << " unexpectedly succeeded";
  } catch (const net::NetTimeoutError&) {
    FAIL() << "refused connection must not be reported as a timeout";
  } catch (const net::NetError&) {
    SUCCEED();
  }
}

}  // namespace
}  // namespace stalecert::query
