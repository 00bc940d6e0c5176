// bench_cluster: point-lookup scaling of the sharded serving tier. One
// world is split into 1, 2 and 4 shard archives; each configuration runs
// the same closed-loop point-lookup workload (/v1/stale and
// /v1/summary?domain=) against real HttpServer-backed shard staleds:
//
//   single    — one unsharded StaledService (the pre-cluster baseline).
//   shards-N  — N shard services; every client thread routes each request
//               client-side to the owning shard (ShardPlan hash), the
//               upper bound of horizontal scaling with no router hop.
//   router-4  — the same 4-shard cluster behind RouterService::handle,
//               measuring what the extra front-tier hop costs.
//
// Workers are closed-loop keep-alive HttpClients (one connection per
// worker per shard); every latency is recorded and quantiles are exact.
// Reports QPS and p50/p90/p99 per mode plus the 1->4 shard scaling factor,
// and writes machine-readable JSON with --json <path|-> (BENCH_cluster.json
// in the repo root is a committed run).
//
//   $ ./bench_cluster [--archive W.scw] [--threads N] [--seconds S]
//                     [--seed N] [--json <path|->]
//
// Without --archive, a small-profile world (seed 20230512, same recipe as
// bench_query) is simulated and archived under TMPDIR first.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stalecert/cluster/router.hpp"
#include "stalecert/cluster/shard.hpp"
#include "stalecert/cluster/split.hpp"
#include "stalecert/net/client.hpp"
#include "stalecert/net/server.hpp"
#include "stalecert/query/service.hpp"
#include "stalecert/sim/world.hpp"
#include "stalecert/store/archive.hpp"

using namespace stalecert;
using Clock = std::chrono::steady_clock;

namespace {

int usage(const std::string& detail) {
  std::cerr << "usage: bench_cluster [--archive W.scw] [--threads N]"
               " [--seconds S] [--seed N] [--json <path|->]\n";
  if (!detail.empty()) std::cerr << detail << '\n';
  return 2;
}

struct Options {
  std::string archive;
  unsigned threads = 8;
  double seconds = 3.0;
  std::uint64_t seed = 1;
  std::string json_path;
};

/// Point-lookup probe set: domains (hits and misses) plus query dates.
struct Workload {
  std::vector<std::string> domains;
  std::vector<std::string> dates;
};

Workload build_workload(const store::LoadedWorld& world) {
  Workload w;
  std::set<std::string> domains;
  for (const auto& log : world.ct_logs.logs()) {
    for (const auto& entry : log.entries()) {
      for (const auto& name : entry.certificate.dns_names()) {
        domains.insert(name);
      }
    }
  }
  for (const auto& event : world.registrations) domains.insert(event.domain);
  domains.insert("miss.invalid");
  w.domains.assign(domains.begin(), domains.end());
  for (util::Date d = world.meta.start; d <= world.meta.end; d += 7) {
    w.dates.push_back(d.to_string());
  }
  return w;
}

struct ModeResult {
  std::string mode;
  std::uint64_t operations = 0;
  double wall_seconds = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;

  [[nodiscard]] double qps() const {
    return wall_seconds > 0.0 ? static_cast<double>(operations) / wall_seconds
                              : 0.0;
  }
};

double quantile_us(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(rank, sorted_us.size() - 1)];
}

template <typename Op>
ModeResult run_closed_loop(const std::string& mode, const Options& options,
                           Op&& op) {
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> latencies(options.threads);
  std::vector<std::thread> workers;
  const auto begin = Clock::now();
  for (unsigned t = 0; t < options.threads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(options.seed * 7919 + t);
      auto& samples = latencies[t];
      samples.reserve(1 << 20);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto start = Clock::now();
        op(rng, t);
        const std::chrono::duration<double, std::micro> took =
            Clock::now() - start;
        samples.push_back(took.count());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& worker : workers) worker.join();
  const std::chrono::duration<double> wall = Clock::now() - begin;

  ModeResult result;
  result.mode = mode;
  result.wall_seconds = wall.count();
  std::vector<double> merged;
  for (const auto& samples : latencies) {
    merged.insert(merged.end(), samples.begin(), samples.end());
  }
  result.operations = merged.size();
  std::sort(merged.begin(), merged.end());
  result.p50_us = quantile_us(merged, 0.50);
  result.p90_us = quantile_us(merged, 0.90);
  result.p99_us = quantile_us(merged, 0.99);
  return result;
}

void print_result(const ModeResult& r) {
  std::cout << "  " << r.mode << ": " << r.operations << " ops in "
            << r.wall_seconds << " s = " << static_cast<std::uint64_t>(r.qps())
            << " qps, p50 " << r.p50_us << " us, p90 " << r.p90_us
            << " us, p99 " << r.p99_us << " us\n";
}

/// One running shard tier: services behind real HTTP servers.
struct ShardTier {
  std::vector<std::unique_ptr<query::StaledService>> services;
  std::vector<std::unique_ptr<net::HttpServer>> servers;
  std::vector<cluster::ShardEndpoint> endpoints;

  ShardTier() = default;
  ShardTier(ShardTier&&) = default;
  ShardTier& operator=(ShardTier&&) = default;
  ~ShardTier() {
    for (auto& server : servers) {
      if (server) server->stop();
    }
  }
};

ShardTier start_tier(const std::vector<std::string>& archive_paths,
                     const cluster::ShardPlan* plan,
                     unsigned server_threads) {
  ShardTier tier;
  for (unsigned k = 0; k < archive_paths.size(); ++k) {
    query::ServiceOptions service_options;
    if (plan != nullptr) {
      service_options.shard_index = k;
      service_options.shard_count = plan->count();
      const auto scope = plan->scope_for(k);
      service_options.snapshot_builder = [scope](const std::string& path) {
        return query::StalenessIndex::from_archive(path, scope);
      };
    }
    auto service = std::make_unique<query::StaledService>(archive_paths[k],
                                                          service_options);
    service->log().set_level(obs::LogLevel::kError);
    service->load();

    net::HttpServer::Options server_options;
    server_options.port = 0;
    // Each closed-loop worker keeps one persistent connection per shard,
    // and the server is thread-per-connection: size the pool to the
    // worker count or the extra workers would block in connect forever.
    server_options.threads = server_threads;
    auto* raw = service.get();
    auto server = std::make_unique<net::HttpServer>(
        server_options,
        [raw](const net::HttpRequest& r) { return raw->handle(r); });
    server->start();
    tier.endpoints.push_back({"127.0.0.1", server->port()});
    tier.services.push_back(std::move(service));
    tier.servers.push_back(std::move(server));
  }
  return tier;
}

std::string point_target(const Workload& workload, std::mt19937_64& rng,
                         std::string* domain_out) {
  const auto& domain =
      workload.domains[rng() % workload.domains.size()];
  *domain_out = domain;
  if (rng() % 2 == 0) {
    return "/v1/stale?domain=" + domain + "&date=" +
           workload.dates[rng() % workload.dates.size()];
  }
  return "/v1/summary?domain=" + domain;
}

/// Closed-loop workers routing each point lookup client-side to the
/// owning shard over per-worker keep-alive connections.
ModeResult run_direct(const std::string& mode, const Options& options,
                      const Workload& workload, const ShardTier& tier,
                      const cluster::ShardPlan& plan) {
  std::vector<std::vector<std::unique_ptr<net::HttpClient>>> clients(
      options.threads);
  for (unsigned t = 0; t < options.threads; ++t) {
    for (const auto& endpoint : tier.endpoints) {
      clients[t].push_back(std::make_unique<net::HttpClient>(
          endpoint.host, endpoint.port));
    }
  }
  return run_closed_loop(mode, options,
                         [&](std::mt19937_64& rng, unsigned t) {
                           std::string domain;
                           const auto target =
                               point_target(workload, rng, &domain);
                           const unsigned shard = plan.shard_for_domain(domain);
                           (void)clients[t][shard]->get(target);
                         });
}

std::string json_report(const store::LoadedWorld& world,
                        const Options& options,
                        const std::vector<ModeResult>& results,
                        double scaling) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"bench_cluster\",\n"
      << "  \"profile\": \"" << world.meta.profile << "\",\n"
      << "  \"seed\": " << world.meta.seed << ",\n"
      << "  \"threads\": " << options.threads << ",\n"
      << "  \"hardware_cores\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"seconds_per_mode\": " << options.seconds << ",\n"
      << "  \"modes\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << (i > 0 ? "," : "") << "\n    \"" << r.mode << "\": {"
        << "\"operations\": " << r.operations << ", \"qps\": "
        << static_cast<std::uint64_t>(r.qps()) << ", \"p50_us\": " << r.p50_us
        << ", \"p90_us\": " << r.p90_us << ", \"p99_us\": " << r.p99_us << "}";
  }
  out << "\n  },\n  \"scaling_1_to_4_shards\": " << scaling << "\n}\n";
  return out.str();
}

int run(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--archive" || arg == "--threads" || arg == "--seconds" ||
        arg == "--seed" || arg == "--json") {
      if (i + 1 >= argc) return usage(arg + " requires an argument");
      const std::string value = argv[++i];
      if (arg == "--archive") {
        options.archive = value;
      } else if (arg == "--threads") {
        options.threads = static_cast<unsigned>(std::atoi(value.c_str()));
      } else if (arg == "--seconds") {
        options.seconds = std::atof(value.c_str());
      } else if (arg == "--seed") {
        options.seed = static_cast<std::uint64_t>(std::atoll(value.c_str()));
      } else {
        options.json_path = value;
      }
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (options.threads == 0) options.threads = 1;

  const char* tmp = std::getenv("TMPDIR");
  std::string tmp_dir = (tmp != nullptr ? std::string(tmp) : std::string("/tmp"));
  if (!tmp_dir.empty() && tmp_dir.back() != '/') tmp_dir += '/';

  if (options.archive.empty()) {
    const std::string path = tmp_dir + "stalecert_bench_cluster.scw";
    sim::WorldConfig config = sim::small_test_config();
    config.seed = 20230512;
    sim::World world(config);
    world.run();
    store::save_world(world, path, nullptr, "small");
    options.archive = path;
    std::cout << "simulated small world -> " << path << "\n";
  }
  const store::LoadedWorld world = store::load_world(options.archive);
  const Workload workload = build_workload(world);
  std::cout << "workload: " << workload.domains.size() << " domains, "
            << workload.dates.size() << " dates\n";

  std::vector<ModeResult> results;

  // Baseline: one unsharded staled.
  {
    ShardTier tier = start_tier({options.archive}, nullptr, options.threads);
    const cluster::ShardPlan plan(1);
    results.push_back(run_direct("single", options, workload, tier, plan));
    print_result(results.back());
  }

  double shards1_qps = 0.0;
  double shards4_qps = 0.0;
  for (const unsigned shards : {1u, 2u, 4u}) {
    const cluster::ShardPlan plan(shards);
    const std::string dir =
        tmp_dir + "stalecert_bench_cluster_shards" + std::to_string(shards);
    const auto paths = cluster::write_shard_archives(world, plan, dir);
    ShardTier tier = start_tier(paths, &plan, options.threads);
    results.push_back(run_direct("shards-" + std::to_string(shards), options,
                                 workload, tier, plan));
    print_result(results.back());
    if (shards == 1) shards1_qps = results.back().qps();
    if (shards == 4) shards4_qps = results.back().qps();

    // The 4-shard tier also measures the router hop.
    if (shards == 4) {
      cluster::RouterOptions router_options;
      router_options.shards = tier.endpoints;
      router_options.timeout = std::chrono::milliseconds(5000);
      router_options.health_interval = std::chrono::milliseconds(0);
      cluster::RouterService router(router_options);
      router.log().set_level(obs::LogLevel::kError);
      results.push_back(run_closed_loop(
          "router-4", options, [&](std::mt19937_64& rng, unsigned) {
            std::string domain;
            const auto target = point_target(workload, rng, &domain);
            const auto parsed = net::parse_request(
                "GET " + target + " HTTP/1.1\r\n\r\n");
            (void)router.handle(*parsed);
          }));
      print_result(results.back());
    }
  }

  const double scaling =
      shards1_qps > 0.0 ? shards4_qps / shards1_qps : 0.0;
  std::cout << "scaling 1 -> 4 shards (direct-routed point lookups): "
            << scaling << "x\n";
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 4) {
    std::cout << "NOTE: only " << cores
              << " hardware core(s) — every tier shares the same CPU, so "
                 "wall-clock qps cannot scale with shard count on this "
                 "machine; compare per-mode latency instead.\n";
  }

  const std::string json = json_report(world, options, results, scaling);
  if (!options.json_path.empty()) {
    if (options.json_path == "-") {
      std::cout << json;
    } else {
      std::ofstream out(options.json_path);
      out << json;
      std::cout << "wrote " << options.json_path << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_cluster: " << e.what() << '\n';
    return 1;
  }
}
