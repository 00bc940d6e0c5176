// Unit tests for the minimal HTTP/1.1 subset: request-head parsing,
// percent decoding, connection persistence, response serialization and
// JSON escaping.
#include <gtest/gtest.h>

#include "stalecert/net/http.hpp"

namespace stalecert::query {
namespace {

TEST(PercentDecodeTest, DecodesEscapesAndKeepsMalformedOnesVerbatim) {
  EXPECT_EQ(net::percent_decode("a%20b"), "a b");
  EXPECT_EQ(net::percent_decode("%2F%2f"), "//");
  EXPECT_EQ(net::percent_decode("100%"), "100%");    // truncated escape
  EXPECT_EQ(net::percent_decode("%zz"), "%zz");      // non-hex escape
  EXPECT_EQ(net::percent_decode("a+b"), "a+b");      // '+' is NOT a space here
}

TEST(ParseRequestTest, ParsesTargetQueryAndHeaders) {
  const auto request = net::parse_request(
      "GET /v1/stale?domain=Example.COM&date=2022-01-02 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Custom:  padded value \r\n"
      "\r\n");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->path, "/v1/stale");
  EXPECT_EQ(request->version, "HTTP/1.1");
  EXPECT_EQ(request->param("domain"), "Example.COM");
  EXPECT_EQ(request->param("date"), "2022-01-02");
  EXPECT_EQ(request->param("absent"), std::nullopt);
  // Header names are lowercased, values trimmed.
  EXPECT_EQ(request->headers.at("host"), "localhost");
  EXPECT_EQ(request->headers.at("x-custom"), "padded value");
}

TEST(ParseRequestTest, DecodesPercentEscapesInPathAndQuery) {
  const auto request =
      net::parse_request("GET /v1/key/ab%2Fcd?q=a%26b HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->path, "/v1/key/ab/cd");
  EXPECT_EQ(request->param("q"), "a&b");
}

TEST(ParseRequestTest, RejectsMalformedHeads) {
  EXPECT_FALSE(net::parse_request("").has_value());
  EXPECT_FALSE(net::parse_request("GET /\r\n\r\n").has_value());  // no version
  EXPECT_FALSE(
      net::parse_request("GET / HTTP/1.1\r\nbroken\r\n\r\n").has_value());
  EXPECT_FALSE(
      net::parse_request("GET / HTTP/1.1\r\n: empty-name\r\n\r\n").has_value());
  EXPECT_FALSE(net::parse_request("GET nopath HTTP/1.1\r\n\r\n").has_value());
  EXPECT_FALSE(net::parse_request("GET / FTP/1.1\r\n\r\n").has_value());
}

TEST(ParseRequestTest, KeepAliveFollowsRfc9112Defaults) {
  const auto v11 = net::parse_request("GET / HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(v11.has_value());
  EXPECT_TRUE(v11->keep_alive());

  const auto v11_close =
      net::parse_request("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n");
  ASSERT_TRUE(v11_close.has_value());
  EXPECT_FALSE(v11_close->keep_alive());

  const auto v10 = net::parse_request("GET / HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(v10.has_value());
  EXPECT_FALSE(v10->keep_alive());

  const auto v10_keep =
      net::parse_request("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  ASSERT_TRUE(v10_keep.has_value());
  EXPECT_TRUE(v10_keep->keep_alive());
}

TEST(SerializeResponseTest, CarriesLengthTypeAndConnection) {
  net::HttpResponse response;
  response.status = 404;
  response.content_type = "text/plain";
  response.body = "nope";
  EXPECT_EQ(net::serialize_response(response, /*keep_alive=*/false),
            "HTTP/1.1 404 Not Found\r\n"
            "Content-Type: text/plain\r\n"
            "Content-Length: 4\r\n"
            "Connection: close\r\n"
            "\r\n"
            "nope");
}

TEST(SerializeResponseTest, EmitsExtraHeadersAfterStandardSet) {
  net::HttpResponse response;
  response.status = 503;
  response.content_type = "text/plain";
  response.body = "busy";
  response.headers.emplace("Retry-After", "1");
  EXPECT_EQ(net::serialize_response(response, /*keep_alive=*/false),
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: text/plain\r\n"
            "Content-Length: 4\r\n"
            "Connection: close\r\n"
            "Retry-After: 1\r\n"
            "\r\n"
            "busy");
}

TEST(SerializeResponseTest, HeadOnlyKeepsLengthButOmitsBody) {
  net::HttpResponse response;
  response.body = "{\"ok\":true}";
  const std::string wire =
      net::serialize_response(response, /*keep_alive=*/true,
                              /*head_only=*/true);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(wire.find("ok"), std::string::npos);
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(net::json_escape("plain"), "plain");
  EXPECT_EQ(net::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(net::json_escape("line\nbreak\tand\r"), "line\\nbreak\\tand\\r");
  EXPECT_EQ(net::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

}  // namespace
}  // namespace stalecert::query
