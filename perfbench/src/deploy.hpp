// Inputs, deployments and output checks for the perfbench workloads: a
// seeded `small` world with its archive and daily deltas, a single staled
// node or a 4-shard cluster behind a router (each in feed mode, serving
// over loopback), the read mix, and the checks that compare what the
// servers answered with what the index or a single node says.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stalecert/cluster/router.hpp"
#include "stalecert/feed/runtime.hpp"
#include "stalecert/net/client.hpp"
#include "stalecert/net/server.hpp"
#include "stalecert/obs/observer.hpp"
#include "stalecert/query/index.hpp"
#include "stalecert/query/service.hpp"
#include "stalecert/store/format.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// Everything one set-up generates from the seed.
struct Inputs {
  std::string archive_path;
  stalecert::store::ArchiveMeta meta;
  std::uint64_t archive_bytes = 0;
  std::uint64_t ct_entries = 0;
  /// Full-world .scwd deltas, one simulated day each, in feed order.
  std::vector<std::string> deltas;
  /// Routed only: the shard archives and each delta split per shard.
  std::vector<std::string> shard_paths;
  std::vector<std::vector<std::string>> shard_deltas;  // [delta][shard]
};

/// Simulates the `small` profile world for `seed`, archives it under `dir`
/// and extends it `days` days into daily deltas; with `shards` > 0 also
/// writes the shard archives and splits the deltas. One span per step.
Inputs make_inputs(std::uint64_t seed, const std::string& dir, unsigned days,
                   unsigned shards, SpanRecorder& spans, std::size_t parent);

/// A running deployment. Single node: one StaledService + FeedRuntime
/// behind an HttpServer with 2 reactor threads. Routed: one such node per
/// shard with 1 reactor thread each, a RouterService behind its own
/// 2-thread HttpServer, and an unsplit in-process reference node the
/// checks compare the router against.
class Deployment {
 public:
  /// `shards` 0 starts one whole-world node, N starts N shard nodes behind
  /// a router. `observer` (traced runs only) receives the stage reports of
  /// every snapshot build and delta apply.
  Deployment(const Inputs& inputs, unsigned shards,
             stalecert::obs::PipelineObserver* observer, SpanRecorder& spans,
             std::size_t parent);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment();

  /// The port reads go to: the node's server, or the router's.
  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] bool routed() const { return router_ != nullptr; }
  /// The whole-world node (the reference node when routed).
  [[nodiscard]] stalecert::query::StaledService& node() { return *node_; }
  /// Nodes that take deltas over HTTP: the node, or every shard.
  [[nodiscard]] std::vector<stalecert::query::StaledService*> serving_nodes();
  [[nodiscard]] std::vector<std::uint16_t> serving_ports() const;
  [[nodiscard]] stalecert::cluster::RouterService* router() {
    return router_.get();
  }
  /// Builds every serving node again from its archive, as set-up does, and
  /// discards it; the new build times join build_seconds().
  void rebuild_cold();
  /// Per serving node and build, the wall time from its archive to a
  /// servable snapshot (its feed runtime), set-up builds first; the routed
  /// reference node is not counted.
  [[nodiscard]] const std::vector<double>& build_seconds() const {
    return build_seconds_;
  }

 private:
  struct Node {
    std::unique_ptr<stalecert::feed::FeedRuntime> runtime;
    std::unique_ptr<stalecert::query::StaledService> service;
    std::unique_ptr<stalecert::net::HttpServer> server;
  };
  Node start_node(const std::string& archive, int shard, unsigned shards,
                  unsigned threads, bool serve,
                  stalecert::obs::PipelineObserver* observer);
  /// Serving node `k` (of archives_), not yet started.
  Node serving_node(std::size_t k, stalecert::obs::PipelineObserver* observer);

  unsigned shards_;
  std::vector<std::string> archives_;  // one per serving node
  std::vector<Node> nodes_;  // serving nodes (one, or one per shard)
  Node reference_;           // routed only
  stalecert::query::StaledService* node_ = nullptr;
  std::unique_ptr<stalecert::cluster::RouterService> router_;
  std::unique_ptr<stalecert::net::HttpServer> router_server_;
  std::vector<double> build_seconds_;
};

enum class Kind { kStale, kKey, kRevocation, kSummary };
inline constexpr std::size_t kKinds = 4;
const char* kind_name(Kind kind);

/// The read mix: /v1/stale 55% (Zipf-skewed domains, hits and misses),
/// /v1/key 15%, /v1/revocation 15%, /v1/summary?domain 15%.
struct RequestPool {
  std::vector<std::string> targets;
  std::vector<Kind> kinds;
  std::vector<std::string> wire;  // complete GET requests
};
RequestPool make_pool(const stalecert::query::StalenessIndex& index,
                      std::uint64_t seed, std::size_t size,
                      unsigned extra_days);

/// GETs the first `count` pool targets from `port` and compares each answer
/// with the index's own answer for it (staleness, certificates for the key,
/// revocation status, domain summary counts).
Tally check_against_index(std::uint16_t port, const RequestPool& pool,
                          const stalecert::query::StalenessIndex& index,
                          std::size_t count, std::vector<std::string>& problems);

/// GETs the first `count` pool targets from `port` and requires each answer
/// to equal the reference node's byte for byte.
Tally check_against_reference(std::uint16_t port, const RequestPool& pool,
                              stalecert::query::StaledService& reference,
                              std::size_t count,
                              std::vector<std::string>& problems);

/// What delivering the deltas produced.
struct IngestRun {
  std::vector<double> latency_ms;  // per delta, all serving nodes
  Tally tally;                     // one per POST
  std::uint64_t posts = 0;
  std::uint64_t new_certificates = 0;
  std::uint64_t rebuilt = 0;
};

/// One keep-alive connection per serving node, for the POSTs to /ingest.
/// Open them before the reads: the listener deals connections to reactors
/// round-robin, and an apply blocks the reads of its reactor, so the order
/// of connecting decides how many reads wait behind each apply. Opened
/// while the reads connected, they took one of two places at random, and
/// read_p99_us on `ingest` with them.
using IngestClients = std::vector<std::unique_ptr<stalecert::net::HttpClient>>;
IngestClients connect_ingest_clients(const Deployment& deployment);

/// POSTs every delta to /ingest of every serving node over `clients`, one
/// delta each `cadence` (back to back when zero). A delta counts when every
/// node answers 200 with a feed generation one higher than before. The
/// routed reference node applies the full-world delta in process, untimed.
IngestRun ingest_deltas(Deployment& deployment, IngestClients& clients,
                        const Inputs& inputs, std::chrono::milliseconds cadence,
                        SpanRecorder& spans, std::size_t parent,
                        std::vector<std::string>& problems);

/// Resident set size of this process, MB.
double rss_mb();

}  // namespace perfbench
