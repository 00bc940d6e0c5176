#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "stalecert/cluster/shard.hpp"
#include "stalecert/net/fetch.hpp"
#include "stalecert/net/http.hpp"
#include "stalecert/obs/event_log.hpp"
#include "stalecert/obs/metrics.hpp"
#include "stalecert/util/mutex.hpp"

namespace stalecert::cluster {

/// One shard backend the router talks to. Position in RouterOptions::shards
/// IS the shard number: endpoint k must serve shard k/N of the same world.
struct ShardEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct RouterOptions {
  /// Shard backends in shard order; size() fixes N.
  std::vector<ShardEndpoint> shards;
  /// Per-shard request deadline: bounds connect and every socket exchange
  /// of one forwarded request (scatter legs each get the full deadline).
  std::chrono::milliseconds timeout{500};
  /// Background health-probe period; 0 disables the probe thread.
  std::chrono::milliseconds health_interval{1000};
  std::string build_info = "stalecert-staled-router/dev";
};

// --- Merge helpers (pure; unit-tested directly) ---------------------------

/// Splits the top-level elements of a rendered JSON array (the text between
/// its outer brackets) into one string per element. Only understands the
/// subset our serializers emit: objects/arrays nest, strings may contain
/// escaped quotes, commas separate at depth zero.
std::vector<std::string> split_json_array(std::string_view array_text);

/// Reads the integer immediately after `"<key>":`; nullopt when absent.
std::optional<std::uint64_t> extract_json_uint(std::string_view body,
                                               std::string_view key);

/// Merges per-shard GET /v1/summary bodies (owned-slice numbers) into the
/// single-node body: counts sum, generation is the minimum, the profile
/// drops its "#shard-K/N" tag. `missing` lists shards that did not answer
/// before the gather deadline; non-empty appends `"partial":true` and the
/// shard list instead of silently under-counting.
std::string merge_summary_bodies(const std::vector<std::string>& bodies,
                                 const std::vector<unsigned>& missing);

// --- The router -----------------------------------------------------------

/// staled-router's request handler: the front tier over N shard staleds.
/// Every data lookup is a one-hop point lookup to the shard that ShardPlan
/// makes home for its key, with one retry on a fresh connection, then 503:
/// /v1/stale and /v1/summary?domain= by routing domain, /v1/key/<spki> by
/// the lowercase SPKI hex, /v1/revocation?serial= by the lowercase serial
/// hex. The plan replicates every certificate onto its SPKI's and its
/// serial's home shard, so that shard alone renders the single-node answer,
/// and a dead shard fails only the lookups it is home for. The global
/// /v1/summary is the only data scatter: every shard under a per-shard
/// deadline, merged, degraded to a partial-flagged body when a shard is
/// missing. /ingest is 404 here: deltas go directly to their shard's
/// staled. /healthz, /metrics and /statusz describe the router itself,
/// including per-shard health.
///
/// Health: a background probe (start()) GETs each shard's /healthz every
/// health_interval; request-path failures also mark a shard down
/// immediately. Transitions emit event-log entries and flip the per-shard
/// health gauge; a down shard is still attempted on the request path (the
/// probe may lag a recovery) — health state feeds /healthz, /statusz and
/// the metrics, not request suppression.
class RouterService {
 public:
  explicit RouterService(RouterOptions options);
  RouterService(const RouterService&) = delete;
  RouterService& operator=(const RouterService&) = delete;
  ~RouterService();

  /// Starts the background health probe (no-op when health_interval is 0).
  void start();
  /// Stops the probe thread. Idempotent; the destructor calls it.
  void stop();

  /// Thread-safe request entry point (the HttpServer handler).
  [[nodiscard]] net::HttpResponse handle(const net::HttpRequest& request);

  [[nodiscard]] unsigned shard_count() const {
    return static_cast<unsigned>(options_.shards.size());
  }
  [[nodiscard]] bool shard_healthy(unsigned shard) const {
    return states_[shard]->healthy.load(std::memory_order_relaxed);
  }
  [[nodiscard]] obs::MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] obs::EventLog& log() { return log_; }

 private:
  struct ShardState {
    std::atomic<bool> healthy{true};
    /// Idle keep-alive sockets to this shard (owned fds from
    /// net::fetch_all), reused across requests; a failed exchange
    /// discards its connection instead of returning it.
    util::Mutex pool_mutex;
    std::vector<int> idle GUARDED_BY(pool_mutex);
  };

  /// One concurrent net::fetch_all pass over `shards` for `target`:
  /// pooled connections go out as reuse fds, survivors come back to the
  /// pool, per-shard health and metrics are updated. results[i] answers
  /// shards[i]; nullopt when that shard failed or missed the deadline
  /// (after the fresh-connection retry — the shard is marked down).
  std::vector<std::optional<net::FetchResult>> exchange(
      const std::vector<unsigned>& shards, const std::string& target);
  /// Scatters `target` to every shard concurrently — one event loop
  /// issues all legs at once, each under the full deadline.
  std::vector<std::optional<net::FetchResult>> scatter(
      const std::string& target);

  net::HttpResponse forward_point(unsigned shard,
                                  const net::HttpRequest& request);
  net::HttpResponse gather_summary();
  net::HttpResponse statusz();

  void mark_shard(unsigned shard, bool healthy, const std::string& origin);
  void probe_loop();
  void observe_request(const char* endpoint, int status,
                       std::chrono::steady_clock::time_point start,
                       unsigned fanout);

  RouterOptions options_;
  /// unique_ptr per shard: ShardState holds a mutex and atomics, neither
  /// movable, and the vector is sized once in the constructor.
  std::vector<std::unique_ptr<ShardState>> states_;
  ShardPlan plan_;
  obs::MetricsRegistry registry_;
  obs::EventLog log_;
  std::chrono::steady_clock::time_point started_;
  std::atomic<bool> stopping_{false};
  std::thread probe_;
};

}  // namespace stalecert::cluster
