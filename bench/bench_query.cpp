// bench_query: closed-loop multithreaded load generator for the
// stalecert::query serving stack. Two modes over the same archive-backed
// StalenessIndex:
//
//   index  — worker threads call the index's point lookups directly
//            (is_stale, certs_for_key, revocation_status, stale_at);
//            measures the pure lookup cost the daemon's handlers pay.
//   http   — an in-process staled (HttpServer + StaledService) serves a
//            mixed GET workload to keep-alive HttpClient threads; measures
//            end-to-end request latency including parsing and sockets.
//
// Each worker runs closed-loop (next request when the previous answers)
// and records every latency; quantiles are exact (sorted samples, no
// bucketing). Reports QPS and p50/p90/p99 per mode, prints a summary and
// writes machine-readable JSON with --json <path|-> (BENCH_query.json in
// the repo root is a committed run).
//
//   $ ./bench_query [--archive W.scw] [--threads N] [--seconds S]
//                   [--seed N] [--mode index|http|both] [--json <path|->]
//
// Without --archive, a small-profile world (seed 20230512, same recipe as
// bench_store) is simulated and archived under TMPDIR first.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stalecert/net/client.hpp"
#include "stalecert/net/server.hpp"
#include "stalecert/query/service.hpp"
#include "stalecert/sim/world.hpp"
#include "stalecert/store/archive.hpp"
#include "stalecert/store/errors.hpp"

using namespace stalecert;
using Clock = std::chrono::steady_clock;

namespace {

int usage(const std::string& detail) {
  std::cerr << "usage: bench_query [--archive W.scw] [--threads N]"
               " [--seconds S] [--seed N] [--mode index|http|both]"
               " [--json <path|->]\n";
  if (!detail.empty()) std::cerr << detail << '\n';
  return 2;
}

struct Options {
  std::string archive;
  unsigned threads = 4;
  double seconds = 3.0;
  std::uint64_t seed = 1;
  std::string mode = "both";
  std::string json_path;
};

/// The randomized probe sets every worker draws from, extracted from the
/// index so hits and misses both occur.
struct Workload {
  std::vector<std::string> domains;
  std::vector<util::Date> dates;
  std::vector<std::string> spkis;
  std::vector<std::string> serials;
};

Workload build_workload(const query::StalenessIndex& index) {
  Workload w;
  std::set<std::string> domains;
  std::set<std::string> spkis;
  std::set<std::string> serials;
  const auto& corpus = index.corpus();
  for (std::uint32_t i = 0; i < corpus.size(); ++i) {
    const auto& cert = corpus.at(i);
    for (const auto& name : cert.dns_names()) {
      domains.insert(query::normalize_domain(name));
    }
    spkis.insert(cert.subject_key().fingerprint_hex());
    serials.insert(cert.serial_hex());
  }
  for (const auto& record : index.stale_records()) {
    domains.insert(record.trigger_domain);
  }
  domains.insert("miss.invalid");
  spkis.insert("0000");
  serials.insert("0000");
  w.domains.assign(domains.begin(), domains.end());
  w.spkis.assign(spkis.begin(), spkis.end());
  w.serials.assign(serials.begin(), serials.end());
  for (util::Date d = index.meta().start; d <= index.meta().end; d += 7) {
    w.dates.push_back(d);
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

/// Runs `threads` closed-loop workers for `seconds`, each invoking `op(rng)`
/// repeatedly and timing every call; merges all samples into one result.
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

std::string json_report(const query::StalenessIndex& index,
                        const Options& options,
                        const std::vector<ModeResult>& results) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"bench_query\",\n"
      << "  \"profile\": \"" << index.meta().profile << "\",\n"
      << "  \"seed\": " << index.meta().seed << ",\n"
      << "  \"certificates\": " << index.stats().certificates << ",\n"
      << "  \"stale_records\": " << index.stats().stale_records << ",\n"
      << "  \"threads\": " << options.threads << ",\n"
      << "  \"seconds_per_mode\": " << options.seconds << ",\n"
      << "  \"modes\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << (i > 0 ? "," : "") << "\n    \"" << r.mode << "\": {"
        << "\"operations\": " << r.operations << ", \"qps\": "
        << static_cast<std::uint64_t>(r.qps()) << ", \"p50_us\": " << r.p50_us
        << ", \"p90_us\": " << r.p90_us << ", \"p99_us\": " << r.p99_us << "}";
  }
  out << "\n  }\n}\n";
  return out.str();
}

int run(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--archive" || arg == "--threads" || arg == "--seconds" ||
        arg == "--seed" || arg == "--mode" || arg == "--json") {
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
      } else if (arg == "--mode") {
        options.mode = value;
      } else {
        options.json_path = value;
      }
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (options.threads == 0) options.threads = 1;
  if (options.mode != "index" && options.mode != "http" &&
      options.mode != "both") {
    return usage("bad --mode " + options.mode);
  }

  if (options.archive.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    std::string path = (tmp != nullptr ? std::string(tmp) : std::string("/tmp"));
    if (!path.empty() && path.back() != '/') path += '/';
    path += "stalecert_bench_query.scw";
    sim::WorldConfig config = sim::small_test_config();
    config.seed = 20230512;
    sim::World world(config);
    world.run();
    store::save_world(world, path, nullptr, "small");
    options.archive = path;
    std::cout << "simulated small world -> " << path << "\n";
  }

  const auto index = query::StalenessIndex::from_archive(options.archive);
  const Workload workload = build_workload(*index);
  std::cout << "index: " << index->stats().certificates << " certificates, "
            << index->stats().stale_records << " stale records, "
            << workload.domains.size() << " probe domains\n"
            << "closed loop: " << options.threads << " threads x "
            << options.seconds << " s per mode\n";

  std::vector<ModeResult> results;

  if (options.mode != "http") {
    // Direct index lookups, round-robin over the four point queries.
    results.push_back(run_closed_loop(
        "index", options, [&](std::mt19937_64& rng, unsigned) {
          const auto pick = rng();
          switch (pick % 4) {
            case 0:
              (void)index->is_stale(
                  workload.domains[pick % workload.domains.size()],
                  workload.dates[(pick >> 8) % workload.dates.size()]);
              break;
            case 1:
              (void)index->certs_for_key(
                  workload.spkis[pick % workload.spkis.size()]);
              break;
            case 2:
              (void)index->revocation_status(
                  workload.serials[pick % workload.serials.size()]);
              break;
            default:
              (void)index->stale_at(
                  workload.dates[pick % workload.dates.size()]);
          }
        }));
    print_result(results.back());
  }

  if (options.mode != "index") {
    query::StaledService service(options.archive);
    // Closed-loop load trips the slow-request warn path constantly; the
    // bench only wants the measurements, not a firehose on stderr.
    service.log().enable_stderr(false);
    service.load();
    net::HttpServer::Options server_options;
    server_options.threads = options.threads;
    net::HttpServer server(server_options,
                           [&service](const net::HttpRequest& request) {
                             return service.handle(request);
                           });
    server.set_request_hook([&service](const net::HttpRequest&,
                                       const net::HttpResponse& response,
                                       std::chrono::nanoseconds write_duration) {
      service.on_response_written(response, write_duration);
    });
    server.start();

    std::vector<net::HttpClient> clients;
    clients.reserve(options.threads);
    for (unsigned t = 0; t < options.threads; ++t) {
      clients.emplace_back("127.0.0.1", server.port());
    }
    results.push_back(run_closed_loop(
        "http", options, [&](std::mt19937_64& rng, unsigned t) {
          const auto pick = rng();
          std::string target;
          switch (pick % 4) {
            case 0:
              target = "/v1/stale?domain=" +
                       workload.domains[pick % workload.domains.size()] +
                       "&date=" +
                       workload.dates[(pick >> 8) % workload.dates.size()]
                           .to_string();
              break;
            case 1:
              target = "/v1/key/" + workload.spkis[pick % workload.spkis.size()];
              break;
            case 2:
              target = "/v1/revocation?serial=" +
                       workload.serials[pick % workload.serials.size()];
              break;
            default:
              target = "/healthz";
          }
          (void)clients[t].get(target);
        }));
    print_result(results.back());

    // Report the service's own sliding-window accounting next to the
    // bench's exact samples. Windowed qps is normalized over the full 1m
    // window (so a 3 s burst reads ~burst/60); the windowed quantiles are
    // bucket-resolution approximations of the exact ones above.
    const auto window = std::chrono::seconds(60);
    double windowed_qps = 0.0;
    for (const char* endpoint : {"stale", "key", "revocation", "healthz"}) {
      windowed_qps += service.windowed_qps(endpoint, window);
    }
    const auto stale_latency = service.windowed_latency("stale", window);
    std::cout << "  service windows (1m): " << static_cast<std::uint64_t>(windowed_qps)
              << " qps, stale p50 " << stale_latency.p50 * 1e6 << " us, p99 "
              << stale_latency.p99 * 1e6 << " us, slow traces retained "
              << service.slow_traces().snapshot().size() << "\n";
    server.stop();
  }

  if (!options.json_path.empty()) {
    const std::string report = json_report(*index, options, results);
    if (options.json_path == "-") {
      std::cout << report;
    } else {
      std::ofstream out(options.json_path);
      if (!out) {
        std::cerr << "cannot write " << options.json_path << '\n';
        return 1;
      }
      out << report;
      std::cout << "wrote " << options.json_path << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const store::ArchiveError& e) {
    std::cerr << "bench_query: cannot use archive: " << e.what() << '\n';
    return 1;
  } catch (const stalecert::Error& e) {
    std::cerr << "bench_query: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_query: unexpected error: " << e.what() << '\n';
    return 1;
  }
}
