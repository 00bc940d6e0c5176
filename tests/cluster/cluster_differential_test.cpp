// The cluster's end-to-end contract: a 4-shard cluster behind the router
// answers every query endpoint BYTE-IDENTICALLY to a single-node staled
// over the same world — before and after feed deltas — and a 3-shard
// cluster degrades the documented way when a shard dies. Shards are real
// HttpServers on ephemeral ports (the router genuinely forwards over
// sockets); the router and the single node are driven through handle()
// directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "stalecert/cluster/router.hpp"
#include "stalecert/cluster/shard.hpp"
#include "stalecert/cluster/split.hpp"
#include "stalecert/feed/delta.hpp"
#include "stalecert/feed/extend.hpp"
#include "stalecert/feed/runtime.hpp"
#include "stalecert/net/server.hpp"
#include "stalecert/query/service.hpp"
#include "stalecert/sim/world.hpp"
#include "stalecert/store/archive.hpp"
#include "stalecert/util/strings.hpp"
#include "support/temp_path.hpp"

namespace stalecert::cluster {
namespace {

constexpr unsigned kShards = 4;

net::HttpRequest make_request(const std::string& target,
                              const std::string& method = "GET") {
  const auto parsed =
      net::parse_request(method + " " + target + " HTTP/1.1\r\n\r\n");
  EXPECT_TRUE(parsed.has_value()) << target;
  return *parsed;
}

/// A single node and an N-shard cluster over one fresh simulated world.
struct Cluster {
  std::string base_path;
  store::LoadedWorld full;
  std::vector<feed::WorldDelta> deltas;           // full-world deltas
  std::vector<std::vector<std::string>> routed;   // routed bytes [delta][shard]

  std::unique_ptr<query::StaledService> single;
  std::unique_ptr<feed::FeedRuntime> single_runtime;
  std::vector<std::unique_ptr<query::StaledService>> shard_services;
  std::vector<std::unique_ptr<feed::FeedRuntime>> shard_runtimes;
  std::vector<std::unique_ptr<net::HttpServer>> shard_servers;
  std::unique_ptr<RouterService> router;

  // Query inputs harvested from the world.
  std::vector<std::string> domains;
  std::vector<std::string> spkis;
  std::vector<std::string> serials;
};

std::unique_ptr<Cluster> make_cluster(unsigned shard_count) {
  auto c = std::make_unique<Cluster>();
  // gtest_discover_tests runs sibling TESTs as concurrent processes that
  // share TempDir — the fixture paths must be per-process, and per shard
  // count when one process builds two clusters.
  const std::string tag = std::to_string(shard_count);
  c->base_path =
      testutil::unique_temp_path("cluster_diff_base_" + tag + ".scw");
  sim::World world(sim::small_test_config());
  world.run();
  store::save_world(world, c->base_path, nullptr, "small");
  c->full = store::load_world(c->base_path);

  const ShardPlan plan(shard_count);
  const auto shard_paths = write_shard_archives(
      c->full, plan, testutil::unique_temp_path("cluster_diff_shards_" + tag));

  // Feed deltas: the full-world sequence and its routed split.
  c->deltas = feed::extend_world(c->full.meta, 2, 1);
  DeltaSplitter splitter(c->full, plan);
  for (const auto& delta : c->deltas) {
    const auto per_shard = splitter.split(delta);
    std::vector<std::string> bodies;
    for (const auto& routed : per_shard) {
      const auto bytes = feed::write_delta_bytes(routed);
      bodies.emplace_back(bytes.begin(), bytes.end());
    }
    c->routed.push_back(std::move(bodies));
  }

  c->single = std::make_unique<query::StaledService>(c->base_path);
  c->single->log().set_level(obs::LogLevel::kError);
  c->single_runtime = std::make_unique<feed::FeedRuntime>(c->base_path);
  c->single->set_ingest_handler(c->single_runtime->handler());
  c->single->publish(c->single_runtime->index(), "test base");

  std::vector<ShardEndpoint> endpoints;
  for (unsigned k = 0; k < shard_count; ++k) {
    query::ServiceOptions options;
    options.shard_index = k;
    options.shard_count = shard_count;
    auto service =
        std::make_unique<query::StaledService>(shard_paths[k], options);
    service->log().set_level(obs::LogLevel::kError);
    auto runtime = std::make_unique<feed::FeedRuntime>(
        shard_paths[k], nullptr, plan.scope_for(k));
    service->set_ingest_handler(runtime->handler());
    service->publish(runtime->index(), "test base");

    net::HttpServer::Options server_options;
    server_options.port = 0;
    auto* raw = service.get();
    auto server = std::make_unique<net::HttpServer>(
        server_options,
        [raw](const net::HttpRequest& r) { return raw->handle(r); });
    server->start();
    endpoints.push_back({"127.0.0.1", server->port()});

    c->shard_services.push_back(std::move(service));
    c->shard_runtimes.push_back(std::move(runtime));
    c->shard_servers.push_back(std::move(server));
  }

  RouterOptions router_options;
  router_options.shards = endpoints;
  router_options.timeout = std::chrono::milliseconds(5000);
  router_options.health_interval = std::chrono::milliseconds(0);
  c->router = std::make_unique<RouterService>(router_options);
  c->router->log().set_level(obs::LogLevel::kError);

  // Harvest query inputs: every name, SPKI and serial the world knows.
  std::set<std::string> domains;
  std::set<std::string> spkis;
  std::set<std::string> serials;
  for (const auto& log : c->full.ct_logs.logs()) {
    for (const auto& entry : log.entries()) {
      for (const auto& name : entry.certificate.dns_names()) {
        domains.insert(name);
      }
      spkis.insert(entry.certificate.subject_key().fingerprint_hex());
      serials.insert(util::to_lower(entry.certificate.serial_hex()));
    }
  }
  for (const auto& event : c->full.registrations) {
    domains.insert(event.domain);
  }
  domains.insert("never-issued.example");  // guaranteed miss
  spkis.insert("00ff00ff");
  serials.insert("deadbeef");
  c->domains.assign(domains.begin(), domains.end());
  c->spkis.assign(spkis.begin(), spkis.end());
  c->serials.assign(serials.begin(), serials.end());
  return c;
}

/// The 4-shard cluster the sweeps run against, built once per test
/// process (gtest_discover_tests runs each TEST alone).
Cluster& cluster() {
  static Cluster* shared = make_cluster(kShards).release();
  return *shared;
}

/// Byte-compares the single node's and the router's answer for one target.
void expect_identical(const std::string& target, Cluster& c = cluster()) {
  const auto request = make_request(target);
  const auto single = c.single->handle(request);
  const auto routed = c.router->handle(request);
  ASSERT_EQ(routed.status, single.status) << target << "\n" << routed.body;
  EXPECT_EQ(routed.content_type, single.content_type) << target;
  EXPECT_EQ(routed.body, single.body) << target;
}

void sweep_all_endpoints() {
  Cluster& c = cluster();
  const std::vector<std::string> dates = {
      c.single->snapshot()->meta().start.to_string(),
      c.single->snapshot()->meta().end.to_string()};
  expect_identical("/v1/summary");
  for (const auto& domain : c.domains) {
    expect_identical("/v1/summary?domain=" + domain);
    for (const auto& date : dates) {
      expect_identical("/v1/stale?domain=" + domain + "&date=" + date);
    }
  }
  for (const auto& spki : c.spkis) expect_identical("/v1/key/" + spki);
  for (const auto& serial : c.serials) {
    expect_identical("/v1/revocation?serial=" + serial);
  }
  // Missing-parameter requests reproduce the single-node 400 bodies.
  expect_identical("/v1/stale");
  expect_identical("/v1/stale?domain=x.example");
  expect_identical("/v1/summary?domain=");
  expect_identical("/v1/revocation");
  expect_identical("/v1/key/");
  expect_identical("/v1/nope");
}

TEST(ClusterDifferentialTest, EveryEndpointMatchesSingleNodeByteForByte) {
  ASSERT_GT(cluster().domains.size(), 10u);
  ASSERT_GT(cluster().spkis.size(), 10u);
  sweep_all_endpoints();
}

TEST(ClusterDifferentialTest, RoutedDeltasKeepClusterEquivalent) {
  Cluster& c = cluster();
  for (std::size_t d = 0; d < c.deltas.size(); ++d) {
    // Single node applies the full-world delta...
    const auto bytes = feed::write_delta_bytes(c.deltas[d]);
    query::IngestSource source;
    source.bytes.assign(bytes.begin(), bytes.end());
    source.origin = "test";
    const auto outcome = c.single->ingest(source);
    ASSERT_TRUE(outcome.ok) << outcome.message;

    // ...each shard applies only its routed slice.
    for (unsigned k = 0; k < kShards; ++k) {
      query::IngestSource shard_source;
      shard_source.bytes = c.routed[d][k];
      shard_source.origin = "test";
      const auto shard_outcome = c.shard_services[k]->ingest(shard_source);
      ASSERT_TRUE(shard_outcome.ok)
          << "shard " << k << ": " << shard_outcome.message;
    }
  }
  // A full-world delta must NOT apply to a shard (wrong world id): the
  // deployment mistake the shard-tagged profile exists to catch.
  query::IngestSource wrong;
  const auto full_bytes = feed::write_delta_bytes(c.deltas[0]);
  wrong.bytes.assign(full_bytes.begin(), full_bytes.end());
  wrong.origin = "test";
  EXPECT_EQ(c.shard_services[0]->ingest(wrong).status, 409);

  EXPECT_EQ(c.single->snapshot()->patch_generation(), c.deltas.size());
  for (unsigned k = 0; k < kShards; ++k) {
    EXPECT_EQ(c.shard_services[k]->snapshot()->patch_generation(),
              c.deltas.size());
  }
  sweep_all_endpoints();
}

TEST(ClusterDifferentialTest, DeadShardDegradesTheDocumentedWay) {
  // Its own cluster: stopping a shard of the shared one would break every
  // later test in the same process. Three shards, because FNV-1a modulo a
  // power of two cannot tell letter case apart, so only an odd shard count
  // shows a router that routes unnormalized hex to the wrong shard.
  constexpr unsigned kCount = 3;
  constexpr unsigned kDead = 2;
  const auto three_shards = make_cluster(kCount);
  Cluster& c = *three_shards;
  const ShardPlan plan(kCount);
  c.shard_servers[kDead]->stop();

  const auto expect_unavailable = [&c](const std::string& target) {
    const auto response = c.router->handle(make_request(target));
    EXPECT_EQ(response.status, 503) << target;
    EXPECT_NE(response.body.find("shard 2/3 unavailable after retry"),
              std::string::npos)
        << target << "\n" << response.body;
    ASSERT_TRUE(response.headers.contains("Retry-After")) << target;
    EXPECT_EQ(response.headers.at("Retry-After"), "1");
  };

  // A domain the dead shard owns: its point lookup cannot be served.
  const auto owned = std::find_if(
      c.domains.begin(), c.domains.end(), [&plan](const std::string& d) {
        return plan.shard_for_domain(d) == kDead;
      });
  ASSERT_NE(owned, c.domains.end());
  expect_unavailable("/v1/summary?domain=" + *owned);

  // A domain a LIVE shard owns still answers exactly.
  const auto alive = std::find_if(
      c.domains.begin(), c.domains.end(), [&plan](const std::string& d) {
        return plan.shard_for_domain(d) != kDead;
      });
  ASSERT_NE(alive, c.domains.end());
  expect_identical("/v1/summary?domain=" + *alive, c);

  // Key and revocation lookups go to their key's home shard alone: those
  // homed on the dead shard fail closed, every other one answers exactly,
  // in either letter case, each with a fan-out of one.
  const auto dead_spki = std::find_if(
      c.spkis.begin(), c.spkis.end(), [&plan](const std::string& spki) {
        return plan.shard_for_key(spki) == kDead;
      });
  ASSERT_NE(dead_spki, c.spkis.end());
  expect_unavailable("/v1/key/" + *dead_spki);
  const auto dead_serial = std::find_if(
      c.serials.begin(), c.serials.end(), [&plan](const std::string& s) {
        return plan.shard_for_key(s) == kDead;
      });
  ASSERT_NE(dead_serial, c.serials.end());
  expect_unavailable("/v1/revocation?serial=" + *dead_serial);

  auto& fanout = c.router->registry().histogram(
      "stalecert_router_fanout_shards", {1, 2, 3, 4, 6, 8, 12, 16}, {});
  const std::uint64_t lookups_before = fanout.count();
  const double shards_before = fanout.sum();
  const auto upper = [](std::string text) {
    for (char& ch : text) {
      ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
    }
    return text;
  };
  std::size_t live_lookups = 0;
  for (const auto& spki : c.spkis) {
    if (plan.shard_for_key(spki) == kDead) continue;
    expect_identical("/v1/key/" + spki, c);
    expect_identical("/v1/key/" + upper(spki), c);
    live_lookups += 2;
  }
  for (const auto& serial : c.serials) {
    if (plan.shard_for_key(serial) == kDead) continue;
    expect_identical("/v1/revocation?serial=" + serial, c);
    expect_identical("/v1/revocation?serial=" + upper(serial), c);
    live_lookups += 2;
  }
  EXPECT_EQ(fanout.count() - lookups_before, live_lookups);
  EXPECT_EQ(fanout.sum() - shards_before, static_cast<double>(live_lookups));

  // The global summary degrades to an explicit partial body instead.
  const auto summary = c.router->handle(make_request("/v1/summary"));
  EXPECT_EQ(summary.status, 200);
  EXPECT_NE(summary.body.find("\"partial\":true,\"shards_missing\":[2]"),
            std::string::npos);

  // The request-path failures marked the shard down; the router's own
  // health and status surfaces say so.
  EXPECT_FALSE(c.router->shard_healthy(kDead));
  const auto healthz = c.router->handle(make_request("/healthz"));
  EXPECT_EQ(healthz.status, 503);
  EXPECT_NE(healthz.body.find("degraded: shards down: 2"), std::string::npos);
  const auto statusz = c.router->handle(make_request("/statusz"));
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("\"healthy\":false"), std::string::npos);

  const auto metrics = c.router->handle(make_request("/metrics"));
  EXPECT_NE(metrics.body.find("stalecert_router_shard_healthy{shard=\"2\"} 0"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("stalecert_router_shard_errors_total"),
            std::string::npos);
}

TEST(ClusterRouterTest, RouterOwnsItsOperationalEndpoints) {
  Cluster& c = cluster();
  // /ingest never routes: deltas go to the owning shard's staled.
  const auto ingest = c.router->handle(make_request("/ingest", "POST"));
  EXPECT_EQ(ingest.status, 404);
  EXPECT_NE(ingest.body.find("owning shard"), std::string::npos);

  EXPECT_EQ(c.router->handle(make_request("/v1/summary", "PUT")).status, 405);
  EXPECT_EQ(c.router->handle(make_request("/healthz")).status, 200);

  const auto statusz = c.router->handle(make_request("/statusz"));
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("\"shard_count\":4"), std::string::npos);
  // One entry per shard, each carrying the backend's generation.
  for (unsigned k = 0; k < kShards; ++k) {
    EXPECT_NE(statusz.body.find("\"index\":" + std::to_string(k)),
              std::string::npos);
  }

  const auto metrics = c.router->handle(make_request("/metrics"));
  EXPECT_NE(metrics.body.find("stalecert_router_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("stalecert_router_fanout_shards"),
            std::string::npos);
}

}  // namespace
}  // namespace stalecert::cluster
