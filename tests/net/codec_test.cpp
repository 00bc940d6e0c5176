// Http1RequestCodec / Http1ResponseCodec: the incremental parsers under
// the reactor. The wire can deliver a message in any fragmentation, so the
// core property is fragmentation independence: one byte at a time must
// land in exactly the same requests as one big write.
#include "stalecert/net/codec.hpp"

#include <gtest/gtest.h>

#include <string>

namespace stalecert::net {
namespace {

using State = Http1RequestCodec::State;

constexpr std::size_t kMax = 64 * 1024;

TEST(RequestCodecTest, ParsesOneRequestFedByteAtATime) {
  const std::string wire =
      "GET /v1/stale?domain=example.com HTTP/1.1\r\n"
      "Host: localhost\r\n\r\n";
  Http1RequestCodec codec(kMax);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const State state = codec.consume(wire.substr(i, 1));
    if (i + 1 < wire.size()) {
      ASSERT_NE(state, State::kComplete) << "complete after byte " << i;
      ASSERT_NE(state, State::kError) << "error after byte " << i;
    } else {
      ASSERT_EQ(state, State::kComplete);
    }
  }
  const HttpRequest request = codec.take_request();
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/v1/stale");
  EXPECT_EQ(request.param("domain").value_or(""), "example.com");
  EXPECT_TRUE(request.keep_alive());
  EXPECT_TRUE(codec.idle());  // re-armed, nothing buffered
}

TEST(RequestCodecTest, BodyArrivesAcrossFragments) {
  const std::string head =
      "POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n";
  Http1RequestCodec codec(kMax);
  EXPECT_EQ(codec.consume(head), State::kBody);
  EXPECT_EQ(codec.consume("01234"), State::kBody);
  EXPECT_EQ(codec.consume("56789"), State::kComplete);
  const HttpRequest request = codec.take_request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.body, "0123456789");
}

TEST(RequestCodecTest, PipelinedRequestsComeOutInOrder) {
  const std::string wire =
      "GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /b HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /c HTTP/1.1\r\nHost: x\r\n\r\n";
  Http1RequestCodec codec(kMax);
  EXPECT_EQ(codec.consume(wire), State::kComplete);
  EXPECT_EQ(codec.take_request().path, "/a");
  // take_request() already advanced into the buffered leftover.
  ASSERT_EQ(codec.state(), State::kComplete);
  EXPECT_EQ(codec.take_request().path, "/b");
  ASSERT_EQ(codec.state(), State::kComplete);
  EXPECT_EQ(codec.take_request().path, "/c");
  EXPECT_TRUE(codec.idle());
}

TEST(RequestCodecTest, IdleFlipsOnFirstBufferedByte) {
  Http1RequestCodec codec(kMax);
  EXPECT_TRUE(codec.idle());
  codec.consume("G");
  EXPECT_FALSE(codec.idle());  // a partial head: slowloris territory
}

TEST(RequestCodecTest, OversizedHeadIs400WithExactBody) {
  Http1RequestCodec codec(/*max_request_bytes=*/128);
  const std::string filler(256, 'a');
  const State state = codec.consume("GET /x HTTP/1.1\r\nHost: " + filler);
  EXPECT_EQ(state, State::kError);
  EXPECT_EQ(codec.error_response().status, 400);
  EXPECT_EQ(codec.error_response().body, "request too large\n");
}

TEST(RequestCodecTest, MalformedHeadIs400WithExactBody) {
  Http1RequestCodec codec(kMax);
  EXPECT_EQ(codec.consume("this is not http\r\n\r\n"), State::kError);
  EXPECT_EQ(codec.error_response().status, 400);
  EXPECT_EQ(codec.error_response().body, "malformed request\n");
}

TEST(RequestCodecTest, BadContentLengthIs400WithExactBody) {
  Http1RequestCodec codec(kMax);
  const State state = codec.consume(
      "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n");
  EXPECT_EQ(state, State::kError);
  EXPECT_EQ(codec.error_response().status, 400);
  EXPECT_EQ(codec.error_response().body, "bad or oversized content-length\n");
}

TEST(RequestCodecTest, OversizedContentLengthIsRejected) {
  Http1RequestCodec codec(/*max_request_bytes=*/128);
  const State state = codec.consume(
      "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: " +
      std::to_string(Http1RequestCodec::kMaxPostBodyBytes + 1) + "\r\n\r\n");
  EXPECT_EQ(state, State::kError);
  EXPECT_EQ(codec.error_response().body, "bad or oversized content-length\n");
}

TEST(RequestCodecTest, OnlyPostBodiesMayExceedTheHeadBound) {
  const std::string head =
      " /x HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n";
  Http1RequestCodec get(/*max_request_bytes=*/128);
  EXPECT_EQ(get.consume("GET" + head), State::kError);
  EXPECT_EQ(get.error_response().body, "bad or oversized content-length\n");

  Http1RequestCodec post(/*max_request_bytes=*/128);
  EXPECT_EQ(post.consume("POST" + head), State::kBody);
  EXPECT_EQ(post.consume(std::string(1000, 'b')), State::kComplete);
  EXPECT_EQ(post.take_request().body.size(), 1000u);
}

using RState = Http1ResponseCodec::State;

TEST(ResponseCodecTest, ParsesResponseFedByteAtATime) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 5\r\n"
      "Connection: keep-alive\r\n\r\n"
      "hello";
  Http1ResponseCodec codec;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const RState state = codec.consume(wire.substr(i, 1));
    if (i + 1 < wire.size()) {
      ASSERT_NE(state, RState::kComplete) << "complete after byte " << i;
    } else {
      ASSERT_EQ(state, RState::kComplete);
    }
  }
  const auto response = codec.take_response();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_EQ(response.body, "hello");
  EXPECT_FALSE(response.close);
}

TEST(ResponseCodecTest, HeadResponseCarriesNoBodyDespiteContentLength) {
  Http1ResponseCodec codec(/*head_only=*/true);
  const RState state = codec.consume(
      "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
      "Content-Length: 42\r\n\r\n");
  ASSERT_EQ(state, RState::kComplete);
  EXPECT_EQ(codec.take_response().body, "");
}

TEST(ResponseCodecTest, ConnectionCloseIsSurfaced) {
  Http1ResponseCodec codec;
  const RState state = codec.consume(
      "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n"
      "Content-Length: 0\r\nConnection: close\r\n\r\n");
  ASSERT_EQ(state, RState::kComplete);
  EXPECT_TRUE(codec.take_response().close);
}

TEST(ResponseCodecTest, KeepAliveResponsesComeOutBackToBack) {
  const std::string one =
      "HTTP/1.1 200 OK\r\nContent-Type: a\r\nContent-Length: 1\r\n\r\nx";
  Http1ResponseCodec codec;
  ASSERT_EQ(codec.consume(one + one), RState::kComplete);
  EXPECT_EQ(codec.take_response().body, "x");
  ASSERT_EQ(codec.state(), RState::kComplete);
  EXPECT_EQ(codec.take_response().body, "x");
}

TEST(ResponseCodecTest, GarbageStatusLineIsError) {
  Http1ResponseCodec codec;
  EXPECT_EQ(codec.consume("SMTP/0.9 yes\r\n\r\n"), RState::kError);
}

}  // namespace
}  // namespace stalecert::net
