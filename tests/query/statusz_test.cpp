// /statusz + obs v2 serving-path instrumentation: statusz JSON fields,
// HTML mode, windowed metrics surfacing, slow-trace retention, and the
// HEAD + Content-Type contract for the operational endpoints over a real
// socket.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "stalecert/net/client.hpp"
#include "stalecert/net/server.hpp"
#include "stalecert/query/service.hpp"

#ifndef STALECERT_QUERY_TEST_DATA_DIR
#error "STALECERT_QUERY_TEST_DATA_DIR must be defined by the build"
#endif

namespace stalecert::query {
namespace {

const std::string kGoldenPath =
    std::string(STALECERT_QUERY_TEST_DATA_DIR) + "/golden_small.scw";

net::HttpRequest make_request(const std::string& path,
                              std::map<std::string, std::string> query = {}) {
  net::HttpRequest request;
  request.method = "GET";
  request.version = "HTTP/1.1";
  request.path = path;
  request.target = path;
  request.query = std::move(query);
  return request;
}

class StatuszTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<StaledService>(kGoldenPath);
    service_->log().enable_stderr(false);
    service_->load();
  }
  std::unique_ptr<StaledService> service_;
};

TEST_F(StatuszTest, JsonHasOperationalFields) {
  // Serve some traffic first so windows are non-empty.
  for (int i = 0; i < 5; ++i) {
    (void)service_->handle(make_request("/v1/summary"));
  }
  const auto response = service_->handle(make_request("/statusz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  const std::string& body = response.body;
  EXPECT_NE(body.find("\"build\":"), std::string::npos);
  EXPECT_NE(body.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(body.find("\"generation\":1"), std::string::npos);
  EXPECT_NE(body.find("\"age_seconds\":"), std::string::npos);
  EXPECT_NE(body.find("\"certificates\":"), std::string::npos);
  EXPECT_NE(body.find("\"windows\":"), std::string::npos);
  EXPECT_NE(body.find("\"summary\":{\"1m\":"), std::string::npos);
  EXPECT_NE(body.find("\"qps\":"), std::string::npos);
  EXPECT_NE(body.find("\"p99_us\":"), std::string::npos);
  EXPECT_NE(body.find("\"slo\":"), std::string::npos);
  EXPECT_NE(body.find("\"burn_rate_1m\":"), std::string::npos);
  EXPECT_NE(body.find("\"slow_traces\":"), std::string::npos);
  EXPECT_NE(body.find("\"events\":"), std::string::npos);
}

TEST_F(StatuszTest, AnswersBeforeSnapshotLoads) {
  StaledService unloaded(kGoldenPath);
  unloaded.log().enable_stderr(false);
  const auto response = unloaded.handle(make_request("/statusz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"loaded\":false"), std::string::npos);
  EXPECT_NE(response.body.find("\"generation\":0"), std::string::npos);
}

TEST_F(StatuszTest, HtmlFormat) {
  const auto response =
      service_->handle(make_request("/statusz", {{"format", "html"}}));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/html; charset=utf-8");
  EXPECT_NE(response.body.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(response.body.find("snapshot generation"), std::string::npos);
}

TEST_F(StatuszTest, WindowedMetricsTrackTraffic) {
  for (int i = 0; i < 20; ++i) {
    (void)service_->handle(make_request(
        "/v1/stale", {{"domain", "alpha.example.com"}, {"date", "2021-06-01"}}));
  }
  EXPECT_GT(service_->windowed_qps("stale", std::chrono::seconds(60)), 0.0);
  const auto latency =
      service_->windowed_latency("stale", std::chrono::seconds(60));
  EXPECT_EQ(latency.count, 20u);
  EXPECT_GT(latency.p50, 0.0);
  EXPECT_GE(latency.p99, latency.p50);
  // Unknown endpoint: empty, not a crash.
  EXPECT_EQ(service_->windowed_qps("nope", std::chrono::seconds(60)), 0.0);
  EXPECT_EQ(service_->windowed_latency("nope", std::chrono::seconds(60)).count,
            0u);
}

TEST_F(StatuszTest, MetricsExposeWindowedGaugesAndBurnRates) {
  (void)service_->handle(make_request("/v1/summary"));
  const auto response = service_->handle(make_request("/metrics"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/plain; version=0.0.4");
  EXPECT_NE(response.body.find("stalecert_staled_window_qps{"),
            std::string::npos);
  EXPECT_NE(response.body.find("stalecert_staled_window_latency_seconds{"),
            std::string::npos);
  EXPECT_NE(response.body.find(
                "stalecert_staled_slo_burn_rate{slo=\"availability\""),
            std::string::npos);
  EXPECT_NE(
      response.body.find("stalecert_staled_slo_burn_rate{slo=\"latency\""),
      std::string::npos);
  EXPECT_NE(response.body.find("window=\"1m\""), std::string::npos);
  EXPECT_NE(response.body.find("window=\"5m\""), std::string::npos);
}

TEST_F(StatuszTest, SlowTracesRetainSpanBreakdown) {
  // Force retention regardless of how fast the handlers actually are: with
  // a 0 ns slow threshold every request also logs, so silence stderr (done
  // in SetUp) and use a tiny ring.
  ServiceOptions options;
  options.slow_threshold = std::chrono::nanoseconds(0);
  StaledService service(kGoldenPath, options);
  service.log().enable_stderr(false);
  service.load();
  (void)service.handle(make_request(
      "/v1/stale", {{"domain", "alpha.example.com"}, {"date", "2021-06-01"}}));
  const auto traces = service.slow_traces().snapshot();
  ASSERT_FALSE(traces.empty());
  const auto& trace = traces.front();
  EXPECT_EQ(trace.endpoint, "stale");
  EXPECT_EQ(trace.status, 200);
  EXPECT_GT(trace.total.count(), 0);
  bool saw_lookup = false;
  bool saw_serialize = false;
  bool saw_route = false;
  for (const auto& [name, duration] : trace.spans) {
    saw_lookup |= name == "lookup";
    saw_serialize |= name == "serialize";
    saw_route |= name == "route";
    EXPECT_GE(duration.count(), 0);
  }
  EXPECT_TRUE(saw_lookup);
  EXPECT_TRUE(saw_serialize);
  EXPECT_TRUE(saw_route);
  // The retained breakdown shows up in /statusz.
  const auto statusz = service.handle(make_request("/statusz"));
  EXPECT_NE(statusz.body.find("\"spans\":{"), std::string::npos);
}

TEST_F(StatuszTest, SlowRequestsEmitWarnEvents) {
  ServiceOptions options;
  options.slow_threshold = std::chrono::nanoseconds(0);
  StaledService service(kGoldenPath, options);
  service.log().enable_stderr(false);
  service.load();
  (void)service.handle(make_request("/v1/summary"));
  bool saw_slow_warn = false;
  for (const auto& event : service.log().tail(64)) {
    saw_slow_warn |= event.level == obs::LogLevel::kWarn &&
                     event.message == "slow request";
  }
  EXPECT_TRUE(saw_slow_warn);
}

TEST_F(StatuszTest, ErrorResponsesFeedAvailabilityBurnRate) {
  // /v1/* before load() → 503s → availability burn rate over both windows.
  StaledService unloaded(kGoldenPath);
  unloaded.log().enable_stderr(false);
  for (int i = 0; i < 10; ++i) {
    (void)unloaded.handle(make_request("/v1/summary"));
  }
  const auto statusz = unloaded.handle(make_request("/statusz"));
  // All requests to /v1/summary failed: burn rate far above 1.
  const auto pos = statusz.body.find("\"burn_rate_1m\":");
  ASSERT_NE(pos, std::string::npos);
  const double burn =
      std::stod(statusz.body.substr(pos + std::string("\"burn_rate_1m\":").size()));
  EXPECT_GT(burn, 1.0);
}

// ---------------------------------------------------------------------------
// HTTP-layer contract for the operational endpoints, over a real socket.

class StatuszHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<StaledService>(kGoldenPath);
    service_->log().enable_stderr(false);
    service_->load();
    net::HttpServer::Options options;
    options.port = 0;
    options.threads = 2;
    server_ = std::make_unique<net::HttpServer>(
        options,
        [this](const net::HttpRequest& request) {
          return service_->handle(request);
        });
    server_->set_request_hook(
        [this](const net::HttpRequest&, const net::HttpResponse& response,
               std::chrono::nanoseconds write_duration) {
          service_->on_response_written(response, write_duration);
        });
    server_->start();
  }
  void TearDown() override { server_->stop(); }

  std::unique_ptr<StaledService> service_;
  std::unique_ptr<net::HttpServer> server_;
};

TEST_F(StatuszHttpTest, GetPinsContentTypes) {
  net::HttpClient client("127.0.0.1", server_->port());
  const auto metrics = client.get("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4");
  EXPECT_FALSE(metrics.body.empty());

  const auto statusz = client.get("/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_EQ(statusz.content_type, "application/json");
  EXPECT_NE(statusz.body.find("\"qps\":"), std::string::npos);

  const auto html = client.get("/statusz?format=html");
  EXPECT_EQ(html.status, 200);
  EXPECT_EQ(html.content_type, "text/html; charset=utf-8");
}

TEST_F(StatuszHttpTest, HeadReturnsHeadersWithoutBody) {
  net::HttpClient client("127.0.0.1", server_->port());
  for (const std::string target : {"/metrics", "/statusz"}) {
    const auto head = client.head(target);
    EXPECT_EQ(head.status, 200) << target;
    EXPECT_TRUE(head.body.empty()) << target;
    const auto get = client.get(target);
    EXPECT_EQ(head.content_type, get.content_type) << target;
    // Keep-alive still works after a HEAD (Content-Length was honest).
    EXPECT_EQ(client.get("/healthz").status, 200) << target;
  }
}

TEST_F(StatuszHttpTest, WriteSpanAttributedToRetainedTraces) {
  // End-to-end: drive enough traffic that the ring retains something, then
  // check the retained trace picked up the server's post-write span.
  net::HttpClient client("127.0.0.1", server_->port());
  for (int i = 0; i < 50; ++i) (void)client.get("/v1/summary");
  // The hook runs after the response is on the wire; give workers a beat.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto traces = service_->slow_traces().snapshot();
  ASSERT_FALSE(traces.empty());
  bool saw_write = false;
  for (const auto& trace : traces) {
    for (const auto& [name, duration] : trace.spans) {
      saw_write |= name == "write";
    }
  }
  EXPECT_TRUE(saw_write);
}

}  // namespace
}  // namespace stalecert::query
