// POST /ingest end-to-end (StaledService + FeedRuntime over a real
// socket) and apply-during-query-load concurrency. The concurrency tests
// run under the TSan CI job (see .github/workflows gtest_filter), so they
// exercise exactly the production sharing pattern: readers resolve
// snapshots through SnapshotCell while one writer ingests deltas.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "stalecert/feed/extend.hpp"
#include "stalecert/feed/runtime.hpp"
#include "stalecert/net/client.hpp"
#include "stalecert/net/server.hpp"
#include "stalecert/query/service.hpp"
#include "stalecert/sim/world.hpp"
#include "stalecert/store/archive.hpp"
#include "support/temp_path.hpp"

namespace stalecert::feed {
namespace {

struct FeedWorld {
  std::string base_path;
  std::vector<std::string> delta_bodies;  // .scwd bytes, in sequence order
  std::vector<std::string> delta_paths;
};

const FeedWorld& feed_world() {
  static const FeedWorld shared = [] {
    FeedWorld w;
    w.base_path = testutil::unique_temp_path("feed_service_base.scw");
    sim::World world(sim::small_test_config());
    world.run();
    store::save_world(world, w.base_path, nullptr, "small");
    const auto deltas =
        extend_world(store::ArchiveReader(w.base_path).meta(), 3);
    for (const auto& delta : deltas) {
      const auto bytes = write_delta_bytes(delta);
      w.delta_bodies.emplace_back(bytes.begin(), bytes.end());
      const std::string path =
          testutil::unique_temp_path("feed_service_" + delta_file_name(delta.meta));
      write_delta(delta, path);
      w.delta_paths.push_back(path);
    }
    return w;
  }();
  return shared;
}

/// Service in feed mode + HTTP server on an ephemeral port.
class FeedServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<query::StaledService>(feed_world().base_path);
    service_->log().set_level(obs::LogLevel::kError);
    runtime_ = std::make_unique<FeedRuntime>(feed_world().base_path);
    service_->set_ingest_handler(runtime_->handler());
    service_->publish(runtime_->index(), "test base");

    net::HttpServer::Options options;
    options.port = 0;
    server_ = std::make_unique<net::HttpServer>(
        options,
        [this](const net::HttpRequest& r) { return service_->handle(r); });
    server_->start();
    client_ = std::make_unique<net::HttpClient>("127.0.0.1", server_->port());
  }

  void TearDown() override {
    client_.reset();
    if (server_) server_->stop();
  }

  std::unique_ptr<query::StaledService> service_;
  std::unique_ptr<FeedRuntime> runtime_;
  std::unique_ptr<net::HttpServer> server_;
  std::unique_ptr<net::HttpClient> client_;
};

TEST_F(FeedServiceTest, IngestAppliesDeltaAndBumpsGeneration) {
  const auto before = client_->get("/statusz");
  ASSERT_EQ(before.status, 200);
  EXPECT_NE(before.body.find("\"feed\":{\"enabled\":true"), std::string::npos);
  EXPECT_NE(before.body.find("\"generation\":0"), std::string::npos);

  const auto applied = client_->post("/ingest", feed_world().delta_bodies[0],
                                     "application/octet-stream");
  ASSERT_EQ(applied.status, 200) << applied.body;
  EXPECT_NE(applied.body.find("\"applied\":true"), std::string::npos);
  EXPECT_NE(applied.body.find("\"generation\":1"), std::string::npos);
  EXPECT_NE(applied.body.find("\"rebuilt\":"), std::string::npos);

  const auto after = client_->get("/statusz");
  EXPECT_NE(after.body.find("\"generation\":1"), std::string::npos);
  EXPECT_NE(after.body.find("\"patch_generation\":1"), std::string::npos);

  const auto metrics = client_->get("/metrics");
  EXPECT_NE(metrics.body.find("stalecert_staled_feed_generation 1"),
            std::string::npos);
  EXPECT_NE(
      metrics.body.find(
          "stalecert_staled_ingest_total{result=\"ok\"} 1"),
      std::string::npos);
}

TEST_F(FeedServiceTest, IngestByPathParameter) {
  const auto applied =
      client_->post("/ingest?path=" + feed_world().delta_paths[0], "");
  ASSERT_EQ(applied.status, 200) << applied.body;
  EXPECT_NE(applied.body.find("\"applied\":true"), std::string::npos);
}

TEST_F(FeedServiceTest, IngestRejectionsKeepServingOldSnapshot) {
  const auto snapshot = service_->snapshot();

  // Wrong method.
  EXPECT_EQ(client_->get("/ingest").status, 405);
  // Empty body and no ?path=.
  EXPECT_EQ(client_->post("/ingest", "").status, 400);
  // Garbage bytes.
  const auto garbage = client_->post("/ingest", "not a delta");
  EXPECT_EQ(garbage.status, 400);
  EXPECT_NE(garbage.body.find("\"applied\":false"), std::string::npos);
  // Out-of-sequence (delta 2 before delta 1).
  EXPECT_EQ(client_->post("/ingest", feed_world().delta_bodies[1]).status, 409);

  EXPECT_EQ(service_->snapshot().get(), snapshot.get());

  // The failures are visible in the error counter, and a good delta still
  // lands afterwards.
  const auto metrics = client_->get("/metrics");
  EXPECT_NE(
      metrics.body.find(
          "stalecert_staled_ingest_total{result=\"error\"} 2"),
      std::string::npos);
  EXPECT_EQ(client_->post("/ingest", feed_world().delta_bodies[0]).status, 200);
  EXPECT_NE(service_->snapshot().get(), snapshot.get());
}

TEST_F(FeedServiceTest, SequentialDeltasExtendTheServedHorizon) {
  const std::string before_end = service_->snapshot()->meta().end.to_string();
  for (const auto& body : feed_world().delta_bodies) {
    ASSERT_EQ(client_->post("/ingest", body).status, 200);
  }
  const std::string after_end = service_->snapshot()->meta().end.to_string();
  EXPECT_LT(before_end, after_end);
  EXPECT_EQ(service_->snapshot()->patch_generation(), 3u);

  // The summary endpoint serves the extended window.
  const auto summary = client_->get("/v1/summary");
  EXPECT_EQ(summary.status, 200);
  EXPECT_NE(summary.body.find(after_end), std::string::npos);
}

TEST_F(FeedServiceTest, DeltaLargerThanTheHeadBoundIsAccepted) {
  // One 30-day slice: a body past the server's default 64 KiB
  // request-head bound, POSTed to the default-configured server.
  const auto deltas = extend_world(
      store::ArchiveReader(feed_world().base_path).meta(), 30, 30);
  ASSERT_EQ(deltas.size(), 1u);
  const auto bytes = write_delta_bytes(deltas.front());
  const std::string body(bytes.begin(), bytes.end());
  ASSERT_GT(body.size(), net::HttpServer::Options{}.max_request_bytes);

  const auto applied = client_->post("/ingest", body);
  ASSERT_EQ(applied.status, 200) << applied.body;
  EXPECT_NE(applied.body.find("\"applied\":true"), std::string::npos);
  EXPECT_EQ(service_->snapshot()->meta().end, deltas.front().meta.to_day);
}

TEST(FeedServiceNoHandlerTest, IngestWithoutFeedModeIs404) {
  query::StaledService service(feed_world().base_path);
  service.log().set_level(obs::LogLevel::kError);
  service.load();
  net::HttpRequest request;
  request.method = "POST";
  request.version = "HTTP/1.1";
  request.path = "/ingest";
  const auto response = service.handle(request);
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("feed"), std::string::npos);
}

/// Apply-during-query-load: readers hammer the full endpoint surface
/// in-process while the main thread ingests every delta. Run under TSan in
/// CI; any unsynchronized snapshot handoff shows up there.
TEST(FeedConcurrencyTest, IngestWhileServing) {
  query::StaledService service(feed_world().base_path);
  service.log().set_level(obs::LogLevel::kError);
  FeedRuntime runtime(feed_world().base_path);
  service.set_ingest_handler(runtime.handler());
  service.publish(runtime.index(), "test base");

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&service, &stop, &served] {
      const std::vector<std::string> targets = {
          "/v1/summary", "/statusz", "/metrics", "/healthz"};
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        net::HttpRequest request;
        request.method = "GET";
        request.version = "HTTP/1.1";
        request.path = targets[i++ % targets.size()];
        const auto response = service.handle(request);
        if (response.status != 200) {
          ADD_FAILURE() << request.path << " -> " << response.status;
          return;
        }
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (const auto& body : feed_world().delta_bodies) {
    query::IngestSource source;
    source.bytes = body;
    source.origin = "test";
    const auto outcome = service.ingest(source);
    EXPECT_TRUE(outcome.ok) << outcome.message;
  }
  // Let the readers observe the final snapshot for a bit (bounded, in
  // case a reader bailed via ADD_FAILURE).
  for (int spin = 0; spin < 2000 && served.load() < 64; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(service.snapshot()->patch_generation(), 3u);
  EXPECT_GT(served.load(), 0u);
}

TEST(FeedConcurrencyTest, IngestWhileBusyAnswers503WithRetryAfter) {
  // POST /ingest must never queue behind a slow apply: the second request
  // gets an immediate 503 + Retry-After (try_ingest), the poster retries.
  // A handler parked on a latch makes the overlap deterministic.
  query::StaledService service(feed_world().base_path);
  service.log().set_level(obs::LogLevel::kError);
  service.load();
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  service.set_ingest_handler([&](const query::IngestSource&) {
    entered.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    query::IngestOutcome outcome;
    outcome.ok = false;
    outcome.status = 400;
    outcome.message = "test handler";
    return outcome;
  });

  net::HttpRequest post;
  post.method = "POST";
  post.version = "HTTP/1.1";
  post.path = "/ingest";
  post.body = "whatever";

  std::thread first([&] { (void)service.handle(post); });
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto busy = service.handle(post);
  EXPECT_EQ(busy.status, 503);
  EXPECT_NE(busy.body.find("busy"), std::string::npos);
  ASSERT_TRUE(busy.headers.contains("Retry-After"));
  EXPECT_EQ(busy.headers.at("Retry-After"), "1");

  release.store(true);
  first.join();

  // With the apply path free again, the next POST reaches the handler.
  const auto after = service.handle(post);
  EXPECT_EQ(after.status, 400);
}

TEST(FeedConcurrencyTest, ConcurrentIngestAttemptsSerialize) {
  // Two threads race the same delta sequence; exactly one apply per day
  // must win, the loser getting a clean 409, never a torn snapshot.
  query::StaledService service(feed_world().base_path);
  service.log().set_level(obs::LogLevel::kError);
  FeedRuntime runtime(feed_world().base_path);
  service.set_ingest_handler(runtime.handler());
  service.publish(runtime.index(), "test base");

  std::atomic<int> ok_count{0};
  std::atomic<int> conflict_count{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&] {
      for (const auto& body : feed_world().delta_bodies) {
        query::IngestSource source;
        source.bytes = body;
        source.origin = "race";
        const auto outcome = service.ingest(source);
        if (outcome.ok) {
          ok_count.fetch_add(1);
        } else {
          EXPECT_EQ(outcome.status, 409) << outcome.message;
          conflict_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& writer : writers) writer.join();

  // All three days landed exactly once; every loser conflicted cleanly.
  EXPECT_EQ(ok_count.load(), 3);
  EXPECT_EQ(conflict_count.load(), 3);
  EXPECT_EQ(service.snapshot()->patch_generation(), 3u);
  EXPECT_EQ(service.snapshot()->meta().end.to_string(),
            runtime.horizon().to_string());
}

}  // namespace
}  // namespace stalecert::feed
