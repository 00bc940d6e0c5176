// staled: the staleness serving daemon. Loads a .scw world archive, runs
// the measurement pipeline once, indexes the result (query::StalenessIndex)
// and serves point lookups over a minimal HTTP/1.1 subset:
//
//   $ ./staled [--port N] [--bind ADDR] [--threads N] [--shard K/N]
//              [--log-file PATH] [--log-level LEVEL] <archive.scw>
//   staled: listening on 127.0.0.1:8080 (...)
//
// --shard K/N serves shard K of an N-way partition (see src/cluster): the
// archive is narrowed to the shard's slice (instant on a pre-split
// shard-K-of-N.scw), /statusz and /metrics carry the shard identity, and
// /v1/summary reports the shard's OWNED slice so a front tier can sum
// summaries across shards without double counting.
//
// Endpoints: /v1/stale?domain=&date=, /v1/key/<spki>, /v1/summary[?domain=],
// /v1/revocation?serial=, /healthz, /metrics (Prometheus), /statusz
// (JSON or ?format=html operational status).
//
// Diagnostics go through the service's obs::EventLog: human-readable on
// stderr, optionally mirrored as JSONL with --log-file. --log-level (or the
// STALECERT_LOG_LEVEL environment variable) filters severity.
//
// Feed mode (--feed-dir DIR): the accumulated world is kept in memory, the
// directory's .scwd deltas are applied at startup and then polled every
// --feed-poll-ms, and POST /ingest applies a delta on demand — each apply
// runs only the delta records through the staleness detectors and swaps a
// patched snapshot in, so the daemon stays fresh without re-running the
// pipeline (see src/feed/README.md).
//
// SIGHUP hot-reloads the archive: the replacement index is built off the
// serving path and swapped in atomically; on failure the old snapshot keeps
// serving. In feed mode the reload also re-applies every delta in
// --feed-dir on top of the rebuilt base. SIGINT/SIGTERM drain gracefully:
// no new connections, in-flight requests finish, exit 0. --port 0 binds an
// ephemeral port and prints the outcome, which is how the CI smoke test
// finds it.
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "stalecert/cluster/shard.hpp"
#include "stalecert/feed/runtime.hpp"
#include "stalecert/net/server.hpp"
#include "stalecert/query/index.hpp"
#include "stalecert/query/service.hpp"
#include "stalecert/query/staled_options.hpp"
#include "stalecert/store/errors.hpp"
#include "stalecert/util/mutex.hpp"

using namespace stalecert;

namespace {

int usage(const std::string& detail) {
  std::cerr << "usage: " << query::staled_usage_line() << '\n';
  if (!detail.empty()) std::cerr << detail << '\n';
  return 2;
}

int run(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const auto parsed =
      query::parse_staled_options(args, std::getenv("STALECERT_LOG_LEVEL"));
  if (!parsed.ok()) return usage(parsed.error);
  const query::StaledOptions& options = *parsed.options;

  // Block the control signals before any thread exists so the worker pool
  // inherits the mask and sigwait() below is the only consumer.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGHUP);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  query::ServiceOptions service_options;
  service_options.build_info = "stalecert-staled/1 (obs v2)";
  service_options.feed_dir = options.feed_dir;
  // --shard K/N: serve one slice of a partitioned world. The scope narrows
  // the archive to the shard (a no-op on a pre-split shard-K-of-N.scw) and
  // installs the ownership predicate so /v1/summary reports this shard's
  // owned slice; cluster policy stays out of the query layer.
  std::optional<query::ShardScope> scope;
  if (options.shard_count > 0) {
    scope = cluster::ShardPlan(options.shard_count)
                .scope_for(options.shard_index);
    service_options.shard_index = options.shard_index;
    service_options.shard_count = options.shard_count;
    service_options.snapshot_builder = [s = *scope](const std::string& path) {
      return query::StalenessIndex::from_archive(path, s);
    };
  }
  query::StaledService service(options.archive_path, service_options);
  service.log().set_level(options.log_level);
  if (!options.log_file.empty() && !service.log().open_jsonl(options.log_file)) {
    std::cerr << "staled: cannot open --log-file " << options.log_file << '\n';
    return 2;
  }

  const bool feed_mode = !options.feed_dir.empty();
  std::unique_ptr<feed::FeedRuntime> runtime;
  // One sweep: ingest every pending delta through the service (which
  // publishes each successor snapshot and keeps the metrics honest), then
  // refresh the pending-deltas gauge.
  const auto sweep_feed_dir = [&](const std::string& origin) {
    for (const auto& path : runtime->pending_deltas(options.feed_dir)) {
      if (!service.ingest({.path = path, .origin = origin}).ok) break;
    }
    service
        .registry()
        .gauge("stalecert_staled_feed_pending_deltas", {},
               "Readable .scwd files in --feed-dir still ahead of the horizon")
        .set(static_cast<double>(
            runtime->pending_deltas(options.feed_dir).size()));
  };
  if (feed_mode) {
    // The runtime's base build replaces service.load(): same pipeline, but
    // it keeps the world in memory for incremental applies.
    runtime = std::make_unique<feed::FeedRuntime>(options.archive_path,
                                                  nullptr, scope);
    service.set_ingest_handler(runtime->handler());
    service.publish(runtime->index(), "feed base " + options.archive_path);
    sweep_feed_dir("startup");
  } else {
    service.load();
  }

  net::HttpServer server(options.server,
                         [&service](const net::HttpRequest& r) {
                           return service.handle(r);
                         });
  server.set_request_hook([&service](const net::HttpRequest&,
                                     const net::HttpResponse& response,
                                     std::chrono::nanoseconds write_duration) {
    service.on_response_written(response, write_duration);
  });
  server.start();
  // Kept on stdout, and in exactly this shape: scripts (CI smoke, local
  // tooling) discover an ephemeral --port 0 by parsing this line.
  const unsigned workers =
      options.server.threads == 0 ? 1u : options.server.threads;
  std::cout << "staled: listening on " << options.server.bind_address << ":"
            << server.port() << " (" << workers << " workers)" << std::endl;
  service.log().info("listening",
                     {{"bind", options.server.bind_address},
                      {"port", std::to_string(server.port())},
                      {"workers", std::to_string(workers)}});

  // Feed poll loop: condition-variable timed wait so shutdown is instant.
  util::Mutex poll_mutex;
  util::CondVar poll_cv;
  bool poll_stop = false;  // guarded by poll_mutex
  std::thread poller;
  if (feed_mode) {
    service.log().info("feed mode on",
                       {{"dir", options.feed_dir},
                        {"poll_ms", std::to_string(options.feed_poll_ms)}});
    poller = std::thread([&] {
      for (;;) {
        sweep_feed_dir("poll");
        const util::MutexLock lock(poll_mutex);
        if (poll_cv.wait_for(poll_mutex,
                             std::chrono::milliseconds(options.feed_poll_ms),
                             [&] { return poll_stop; })) {
          return;
        }
      }
    });
  }

  for (;;) {
    int signal = 0;
    if (sigwait(&signals, &signal) != 0) continue;
    if (signal == SIGHUP) {
      service.log().info("SIGHUP received, reloading",
                         {{"archive", options.archive_path}});
      if (feed_mode) {
        // Rebuild the base from disk, publish it, then re-apply every
        // delta in --feed-dir on top. On a broken archive the runtime
        // keeps its current state and the old snapshot keeps serving.
        try {
          runtime->reload();
          service.publish(runtime->index(),
                          "sighup base " + options.archive_path);
          sweep_feed_dir("sighup");
        } catch (const std::exception& e) {
          service.log().error("reload failed, previous snapshot kept",
                              {{"archive", options.archive_path},
                               {"error", e.what()}});
        }
      } else {
        service.reload();  // outcome (ok/failed) is logged by the service
      }
      continue;
    }
    service.log().info("signal received, draining",
                       {{"signal", std::to_string(signal)}});
    break;
  }

  if (poller.joinable()) {
    {
      const util::MutexLock lock(poll_mutex);
      poll_stop = true;
    }
    poll_cv.notify_all();
    poller.join();
  }
  server.stop();
  // The "drained after" phrasing is part of the smoke-test contract.
  service.log().info(
      "drained after " + std::to_string(server.requests_served()) +
          " requests, bye",
      {{"slow_traces_retained",
        std::to_string(service.slow_traces().snapshot().size())}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const store::ArchiveError& e) {
    std::cerr << "staled: cannot serve archive: " << e.what() << '\n';
    return 1;
  } catch (const stalecert::Error& e) {
    std::cerr << "staled: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "staled: unexpected error: " << e.what() << '\n';
    return 1;
  }
}
