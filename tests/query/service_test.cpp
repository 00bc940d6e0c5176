// StaledService + HttpServer end-to-end: the endpoint surface over a real
// socket (HttpClient), parameter validation, metrics self-reporting and
// graceful drain.
#include <gtest/gtest.h>

#include <memory>
#include <string>

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
  request.query = std::move(query);
  return request;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<StaledService>(kGoldenPath);
    service_->load();
  }
  std::unique_ptr<StaledService> service_;
};

TEST_F(ServiceTest, HealthzReportsReadiness) {
  EXPECT_EQ(service_->handle(make_request("/healthz")).status, 200);

  StaledService unloaded(kGoldenPath);
  const auto response = unloaded.handle(make_request("/healthz"));
  EXPECT_EQ(response.status, 503);
  const auto stale =
      unloaded.handle(make_request("/v1/stale", {{"domain", "a"}, {"date", "2022-01-01"}}));
  EXPECT_EQ(stale.status, 503);
}

TEST_F(ServiceTest, StaleEndpointValidatesParameters) {
  EXPECT_EQ(service_->handle(make_request("/v1/stale")).status, 400);
  EXPECT_EQ(
      service_->handle(make_request("/v1/stale", {{"domain", "a.test"}})).status,
      400);
  EXPECT_EQ(service_
                ->handle(make_request(
                    "/v1/stale", {{"domain", "a.test"}, {"date", "tomorrow"}}))
                .status,
            400);
  const auto ok = service_->handle(make_request(
      "/v1/stale", {{"domain", "alpha.example.com"}, {"date", "2021-06-01"}}));
  EXPECT_EQ(ok.status, 200);
  EXPECT_NE(ok.body.find("\"domain\":\"alpha.example.com\""), std::string::npos);
  EXPECT_NE(ok.body.find("\"stale\":"), std::string::npos);
}

TEST_F(ServiceTest, KeyEndpointListsCustody) {
  // Don't assume corpus order: derive the expected name from the cert that
  // owns the queried key.
  const auto& corpus = service_->snapshot()->corpus();
  const std::string spki = corpus.at(0).subject_key().fingerprint_hex();
  const std::string name = corpus.at(0).dns_names().front();
  const auto response = service_->handle(make_request("/v1/key/" + spki));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"spki\":\"" + spki + "\""), std::string::npos);
  EXPECT_NE(response.body.find("\"names\":[\"" + name + "\"]"),
            std::string::npos);

  EXPECT_EQ(service_->handle(make_request("/v1/key/")).status, 400);
  const auto miss = service_->handle(make_request("/v1/key/00ff"));
  EXPECT_EQ(miss.status, 200);
  EXPECT_NE(miss.body.find("\"certificates\":[]"), std::string::npos);
}

TEST_F(ServiceTest, SummaryEndpointCoversGlobalAndDomainViews) {
  const auto global = service_->handle(make_request("/v1/summary"));
  EXPECT_EQ(global.status, 200);
  EXPECT_NE(global.body.find("\"profile\":\"custom\""), std::string::npos);
  EXPECT_NE(global.body.find("\"certificates\":3"), std::string::npos);
  EXPECT_NE(global.body.find("\"distinct_keys\":"), std::string::npos);
  // Traffic-dependent request quantiles moved to /statusz so the summary
  // body is a pure function of the data (cluster merge byte-equivalence).
  EXPECT_EQ(global.body.find("\"requests\":{"), std::string::npos);

  const auto domain = service_->handle(
      make_request("/v1/summary", {{"domain", "beta.example.com"}}));
  EXPECT_EQ(domain.status, 200);
  EXPECT_NE(domain.body.find("\"domain\":\"beta.example.com\""),
            std::string::npos);
  EXPECT_NE(domain.body.find("\"certificates\":1"), std::string::npos);
}

TEST_F(ServiceTest, RevocationEndpointJoinsSerials) {
  // Golden cert 1002 (beta) is revoked as superseded on 2021-11-02 — after
  // the archive's revocation cutoff, so the pipeline keeps it. Find it by
  // name rather than assuming corpus order.
  const auto& corpus = service_->snapshot()->corpus();
  std::string beta_serial, alpha_serial;
  for (std::uint32_t i = 0; i < corpus.size(); ++i) {
    const auto& names = corpus.at(i).dns_names();
    if (names.front() == "beta.example.com") beta_serial = corpus.at(i).serial_hex();
    if (names.front() == "alpha.example.com")
      alpha_serial = corpus.at(i).serial_hex();
  }
  ASSERT_FALSE(beta_serial.empty());
  ASSERT_FALSE(alpha_serial.empty());

  const auto revoked = service_->handle(
      make_request("/v1/revocation", {{"serial", beta_serial}}));
  EXPECT_EQ(revoked.status, 200);
  EXPECT_NE(revoked.body.find("\"revoked\":true"), std::string::npos);
  EXPECT_NE(revoked.body.find("\"revocation_date\":\"2021-11-02\""),
            std::string::npos);
  EXPECT_NE(revoked.body.find("\"key_compromise\":false"), std::string::npos);

  // Alpha's revocation predates the cutoff, so the pipeline dropped it: the
  // serving index faithfully reports it as not revoked.
  const auto pre_cutoff = service_->handle(
      make_request("/v1/revocation", {{"serial", alpha_serial}}));
  EXPECT_EQ(pre_cutoff.status, 200);
  EXPECT_NE(pre_cutoff.body.find("\"revoked\":false"), std::string::npos);

  const auto clean = service_->handle(
      make_request("/v1/revocation", {{"serial", "feedface"}}));
  EXPECT_EQ(clean.status, 200);
  EXPECT_NE(clean.body.find("\"revoked\":false"), std::string::npos);

  EXPECT_EQ(service_->handle(make_request("/v1/revocation")).status, 400);
}

TEST_F(ServiceTest, UnknownPathsAre404AndCounted) {
  EXPECT_EQ(service_->handle(make_request("/v2/anything")).status, 404);
  const auto metrics = service_->handle(make_request("/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("stalecert_staled_requests_total{endpoint=\"other\","
                              "code=\"404\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("stalecert_staled_index_generation"),
            std::string::npos);
  EXPECT_NE(metrics.body.find(
                "stalecert_staled_request_duration_seconds_bucket"),
            std::string::npos);
}

TEST(HttpServerTest, ServesOverARealSocketWithKeepAlive) {
  StaledService service(kGoldenPath);
  service.load();
  net::HttpServer::Options options;
  options.threads = 2;
  net::HttpServer server(options, [&service](const net::HttpRequest& request) {
    return service.handle(request);
  });
  server.start();
  ASSERT_NE(server.port(), 0);

  net::HttpClient client("127.0.0.1", server.port());
  // Several requests over the same keep-alive connection.
  const auto health = client.get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");
  const auto summary = client.get("/v1/summary");
  EXPECT_EQ(summary.status, 200);
  EXPECT_EQ(summary.content_type, "application/json");
  const auto missing = client.get("/v1/stale");
  EXPECT_EQ(missing.status, 400);
  const auto nothere = client.get("/nope");
  EXPECT_EQ(nothere.status, 404);

  EXPECT_GE(server.requests_served(), 4u);
  server.stop();
  EXPECT_FALSE(server.running());
  // stop() is idempotent.
  server.stop();
}

TEST(HttpServerTest, RejectsNonGetMethodsAndOversizedHeads) {
  StaledService service(kGoldenPath);
  service.load();
  net::HttpServer::Options options;
  options.threads = 1;
  options.max_request_bytes = 512;
  net::HttpServer server(options, [&service](const net::HttpRequest& request) {
    return service.handle(request);
  });
  server.start();

  net::HttpClient client("127.0.0.1", server.port());
  // HEAD is allowed (no body comes back).
  const auto head = client.head("/healthz");
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty());
  // POST is not.
  const auto post = client.request("POST", "/healthz");
  EXPECT_EQ(post.status, 405);
  // An oversized request head gets 400.
  const auto oversized =
      client.get("/healthz?pad=" + std::string(2048, 'x'));
  EXPECT_EQ(oversized.status, 400);
  server.stop();
}

}  // namespace
}  // namespace stalecert::query
