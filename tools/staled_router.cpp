// staled-router: the front tier over N shard staleds
// (src/cluster/README.md). Clients talk to the router exactly as they
// would to a single-node staled; the router forwards each lookup to its
// home shard and merges the global summary from every shard:
//
//   $ ./staled_router [--port N] [--bind ADDR] [--threads N]
//                     --shard-endpoint HOST:PORT [--shard-endpoint ...]
//                     [--timeout-ms N] [--health-interval-ms N]
//                     [--log-file PATH] [--log-level LEVEL]
//   staled-router: listening on 127.0.0.1:8080 (2 shards, 4 workers)
//
// --shard-endpoint order matters: the k-th flag must name the staled
// serving shard k/N (started with --shard k/N over shard-k-of-N.scw).
//
// /v1/stale and /v1/summary?domain= forward to the domain's home shard,
// /v1/key/<spki> and /v1/revocation?serial= to the key's or serial's home
// shard (one retry on a fresh connection, then 503), so a dead shard fails
// only the lookups it is home for. The global /v1/summary scatters to
// every shard under --timeout-ms and merges; with a shard missing it
// degrades to a "partial":true body. /metrics, /statusz and /healthz
// describe the router itself (per-shard health, latency, fan-out); POST
// /ingest is 404 here — deltas go directly to the owning shard's staled.
//
// SIGINT/SIGTERM drain gracefully like staled: no new connections,
// in-flight requests finish, exit 0. --port 0 binds an ephemeral port and
// prints the outcome on stdout in the same greppable shape staled uses.
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "stalecert/cluster/router.hpp"
#include "stalecert/net/server.hpp"
#include "stalecert/obs/event_log.hpp"

using namespace stalecert;

namespace {

constexpr const char* kUsage =
    "staled_router [--port N] [--bind ADDR] [--threads N] "
    "--shard-endpoint HOST:PORT [--shard-endpoint ...] [--timeout-ms N] "
    "[--health-interval-ms N] [--log-file PATH] [--log-level LEVEL]";

int usage(const std::string& detail) {
  std::cerr << "usage: " << kUsage << '\n';
  if (!detail.empty()) std::cerr << detail << '\n';
  return 2;
}

bool parse_endpoint(const std::string& text, cluster::ShardEndpoint* out) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= text.size()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long port = std::strtoul(text.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
    return false;
  }
  out->host = text.substr(0, colon);
  out->port = static_cast<std::uint16_t>(port);
  return true;
}

int run(int argc, char** argv) {
  net::HttpServer::Options server_options;
  cluster::RouterOptions router_options;
  router_options.build_info = "stalecert-staled-router/1";
  std::string log_file;
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  if (const char* env = std::getenv("STALECERT_LOG_LEVEL")) {
    if (const auto parsed = obs::parse_log_level(env)) log_level = *parsed;
  }

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const bool takes_value =
        flag == "--port" || flag == "--bind" || flag == "--threads" ||
        flag == "--shard-endpoint" || flag == "--timeout-ms" ||
        flag == "--health-interval-ms" || flag == "--log-file" ||
        flag == "--log-level";
    if (!takes_value) return usage("unknown argument: " + flag);
    if (i + 1 >= args.size()) return usage(flag + " needs a value");
    const std::string& value = args[++i];
    try {
      if (flag == "--port") {
        server_options.port = static_cast<std::uint16_t>(std::stoul(value));
      } else if (flag == "--bind") {
        server_options.bind_address = value;
      } else if (flag == "--threads") {
        server_options.threads = static_cast<unsigned>(std::stoul(value));
      } else if (flag == "--shard-endpoint") {
        cluster::ShardEndpoint endpoint;
        if (!parse_endpoint(value, &endpoint)) {
          return usage("bad --shard-endpoint (want HOST:PORT): " + value);
        }
        router_options.shards.push_back(endpoint);
      } else if (flag == "--timeout-ms") {
        router_options.timeout = std::chrono::milliseconds(std::stoul(value));
      } else if (flag == "--health-interval-ms") {
        router_options.health_interval =
            std::chrono::milliseconds(std::stoul(value));
      } else if (flag == "--log-file") {
        log_file = value;
      } else if (flag == "--log-level") {
        const auto parsed = obs::parse_log_level(value);
        if (!parsed) return usage("bad --log-level: " + value);
        log_level = *parsed;
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (router_options.shards.empty()) {
    return usage("at least one --shard-endpoint is required");
  }

  // Block the drain signals before any thread exists so the worker pool
  // inherits the mask and sigwait() below is the only consumer.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  cluster::RouterService router(router_options);
  router.log().set_level(log_level);
  if (!log_file.empty() && !router.log().open_jsonl(log_file)) {
    std::cerr << "staled-router: cannot open --log-file " << log_file << '\n';
    return 2;
  }

  net::HttpServer server(server_options,
                         [&router](const net::HttpRequest& r) {
                           return router.handle(r);
                         });
  server.start();
  router.start();
  const unsigned workers =
      server_options.threads == 0 ? 1u : server_options.threads;
  // Kept on stdout, and in exactly this shape: scripts (CI smoke, local
  // tooling) discover an ephemeral --port 0 by parsing this line.
  std::cout << "staled-router: listening on " << server_options.bind_address
            << ":" << server.port() << " (" << router.shard_count()
            << " shards, " << workers << " workers)" << std::endl;
  router.log().info("listening",
                    {{"bind", server_options.bind_address},
                     {"port", std::to_string(server.port())},
                     {"shards", std::to_string(router.shard_count())},
                     {"workers", std::to_string(workers)}});

  int signal = 0;
  while (sigwait(&signals, &signal) != 0) {
  }
  router.log().info("signal received, draining",
                    {{"signal", std::to_string(signal)}});
  router.stop();
  server.stop();
  // The "drained after" phrasing is part of the smoke-test contract.
  router.log().info("drained after " +
                    std::to_string(server.requests_served()) +
                    " requests, bye");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const stalecert::Error& e) {
    std::cerr << "staled-router: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "staled-router: unexpected error: " << e.what() << '\n';
    return 1;
  }
}
