#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "stalecert/net/http.hpp"
#include "stalecert/obs/event_log.hpp"
#include "stalecert/obs/metrics.hpp"
#include "stalecert/obs/quantile.hpp"
#include "stalecert/obs/request_trace.hpp"
#include "stalecert/obs/window.hpp"
#include "stalecert/query/index.hpp"
#include "stalecert/util/mutex.hpp"

namespace stalecert::query {

/// Thread-safe holder of the current serving snapshot. Readers take a
/// shared_ptr copy (the snapshot stays alive for the whole request even if
/// a reload swaps underneath them); writers publish a fully built
/// replacement with one pointer swap. The mutex is held only for the
/// pointer copy, never while an index is built or queried.
class SnapshotCell {
 public:
  [[nodiscard]] std::shared_ptr<const StalenessIndex> get() const {
    const util::MutexLock lock(mutex_);
    return snapshot_;
  }

  /// The superseded snapshot is released after the lock, so readers never
  /// wait on the free of whatever it alone still holds.
  void set(std::shared_ptr<const StalenessIndex> snapshot) {
    {
      const util::MutexLock lock(mutex_);
      snapshot_.swap(snapshot);
      generation_.fetch_add(1, std::memory_order_relaxed);
    }
    snapshot.reset();
  }

  /// Number of successful publishes (0 until the first set()).
  [[nodiscard]] std::uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

 private:
  mutable util::Mutex mutex_;
  std::shared_ptr<const StalenessIndex> snapshot_ GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> generation_{0};
};

/// Tunables for the serving-path observability layer (obs v2).
struct ServiceOptions {
  /// Requests at least this slow emit a warn event with their span
  /// breakdown (the slow-trace ring is independent: it always retains the
  /// N slowest recent requests).
  std::chrono::nanoseconds slow_threshold{std::chrono::milliseconds(1)};
  std::size_t slow_trace_capacity = 16;
  /// Availability SLO: target fraction of non-5xx responses.
  double availability_slo = 0.999;
  /// Latency SLO: `latency_slo_fraction` of requests must finish within
  /// `latency_slo_seconds` (aligned with a latency bucket bound so burn
  /// accounting is exact).
  double latency_slo_seconds = 4e-3;
  double latency_slo_fraction = 0.99;
  /// Free-form build/version string surfaced on /statusz.
  std::string build_info = "stalecert-staled/dev";
  /// Directory staled polls for .scwd deltas (display only at this layer:
  /// the poll loop lives in the binary, the apply logic in the ingest
  /// handler). Empty = feed mode off.
  std::string feed_dir;
  /// Injected snapshot factory used by load()/reload() in place of
  /// StalenessIndex::from_archive(path). staled --shard installs a
  /// shard-scoped builder here so the service never learns cluster policy.
  std::function<std::shared_ptr<const StalenessIndex>(const std::string&)>
      snapshot_builder;
  /// Shard identity surfaced on /statusz and /metrics. shard_count == 0
  /// means this process serves a whole world (the default).
  unsigned shard_index = 0;
  unsigned shard_count = 0;
};

/// Where one delta ingest came from: a .scwd file on disk (path set) or
/// raw container bytes (e.g. a POST /ingest body). `origin` labels logs
/// and events ("http", "poll", "startup", "sighup").
struct IngestSource {
  std::string path;
  std::string bytes;
  std::string origin = "http";
};

/// What one ingest attempt produced. `status` is the HTTP status POST
/// /ingest relays: 200 applied, 400 unreadable delta, 409 wrong world or
/// out-of-sequence, 500 unexpected. On failure the service keeps serving
/// its previous snapshot.
struct IngestOutcome {
  bool ok = false;
  int status = 500;
  std::string message;
  std::shared_ptr<const StalenessIndex> index;  // successor snapshot when ok
  std::uint64_t new_certificates = 0;
  std::uint64_t new_stale_records = 0;
  bool rebuilt = false;
  /// Deltas folded in since the base snapshot (applier generation).
  std::uint64_t feed_generation = 0;
  /// Last day covered after the apply, ISO "YYYY-MM-DD".
  std::string horizon;
};

/// Pluggable delta-apply backend (feed::FeedRuntime implements this; the
/// indirection keeps stalecert_query free of a stalecert_feed dependency).
/// Must be callable from multiple threads or do its own serialization.
using IngestHandler = std::function<IngestOutcome(const IngestSource&)>;

/// The staled request handler: routes the endpoint set over the current
/// SnapshotCell snapshot, and observes itself end to end — per-endpoint
/// lifetime counters/histograms (served at /metrics), sliding 1m/5m
/// windowed rates and latency quantiles, SLO burn-rate gauges, a ring of
/// the slowest recent request traces, and a structured event log.
///
/// Endpoints:
///   GET /v1/stale?domain=D&date=YYYY-MM-DD   point-in-time staleness
///   GET /v1/key/<spki-hex>                   certificates sharing a key
///   GET /v1/summary[?domain=D]               global or per-domain summary
///   GET /v1/revocation?serial=<hex>          joined revocation status
///   GET /healthz                             liveness (503 until loaded)
///   GET /metrics                             Prometheus exposition
///   GET /statusz[?format=html]               operational status (JSON/HTML)
///   POST /ingest[?path=F]                    apply one .scwd delta (feed mode)
class StaledService {
 public:
  explicit StaledService(std::string archive_path, ServiceOptions options = {});

  /// Builds the initial snapshot from the archive. Throws (store/pipeline
  /// error taxonomy) when the archive is unusable.
  void load();

  /// Rebuilds from the same archive path and atomically swaps the
  /// snapshot in. On failure the previous snapshot keeps serving and the
  /// reload error counter is bumped; returns false in that case. Safe to
  /// call concurrently with in-flight requests (SIGHUP hot reload).
  bool reload();

  /// Atomically publishes an externally built snapshot (feed mode: the
  /// FeedRuntime's base build at startup, or the rebuilt base on SIGHUP
  /// before deltas are re-applied). Updates the same gauges as load().
  void publish(std::shared_ptr<const StalenessIndex> index,
               const std::string& source);

  /// Thread-safe request entry point (the HttpServer handler).
  [[nodiscard]] net::HttpResponse handle(const net::HttpRequest& request);

  /// Enables feed mode: installs the delta-apply backend and registers the
  /// ingest metrics. Call before start of serving; POST /ingest answers
  /// 404 until a handler is installed.
  void set_ingest_handler(IngestHandler handler);
  [[nodiscard]] bool feed_enabled() const { return ingest_handler_ != nullptr; }

  /// Applies one delta through the installed handler (serialized on an
  /// internal mutex) and, on success, atomically publishes the successor
  /// snapshot. On failure the previous snapshot keeps serving, the error
  /// counter is bumped, and a warn event is logged. Used by POST /ingest,
  /// the --feed-dir poll loop, and the SIGHUP re-apply path.
  IngestOutcome ingest(const IngestSource& source);

  /// Non-blocking variant: nullopt when another apply currently holds the
  /// ingest path (the caller should answer 503 + Retry-After rather than
  /// queue). POST /ingest uses this; the poll loop and SIGHUP re-apply
  /// keep the blocking ingest() since they must not drop deltas.
  std::optional<IngestOutcome> try_ingest(const IngestSource& source);

  /// Post-write hook body: attributes the socket write time back to the
  /// request's retained trace. Wire as
  ///   server.set_request_hook([&](const auto&, const auto& resp, auto d) {
  ///     service.on_response_written(resp, d); });
  void on_response_written(const net::HttpResponse& response,
                           std::chrono::nanoseconds write_duration);

  [[nodiscard]] std::shared_ptr<const StalenessIndex> snapshot() const {
    return cell_.get();
  }
  [[nodiscard]] std::uint64_t generation() const { return cell_.generation(); }
  [[nodiscard]] const std::string& archive_path() const { return archive_path_; }
  [[nodiscard]] obs::MetricsRegistry& registry() { return registry_; }
  /// The service's structured event log; configure sinks/level before
  /// load() (staled wires --log-file / --log-level here).
  [[nodiscard]] obs::EventLog& log() { return log_; }
  [[nodiscard]] const obs::SlowTraceRing& slow_traces() const {
    return slow_ring_;
  }

  /// Windowed latency summary / request rate for one endpoint (e.g.
  /// "stale") over the trailing window, clamped to the 5m horizon.
  [[nodiscard]] obs::QuantileSummary windowed_latency(
      const std::string& endpoint, std::chrono::seconds window) const;
  [[nodiscard]] double windowed_qps(const std::string& endpoint,
                                    std::chrono::seconds window) const;

 private:
  struct EndpointWindow {
    EndpointWindow();
    obs::WindowedCounter requests;
    obs::WindowedCounter errors;  // 5xx responses
    obs::WindowedCounter slow;    // over the latency SLO bound
    obs::WindowedHistogram latency;
  };

  net::HttpResponse dispatch(
      const net::HttpRequest& request, std::string* endpoint,
      const std::shared_ptr<const StalenessIndex>& index,
      obs::RequestTrace* trace);
  net::HttpResponse handle_stale(const net::HttpRequest& request,
                                 const StalenessIndex& index,
                                 obs::RequestTrace* trace) const;
  net::HttpResponse handle_key(const std::string& spki_hex,
                               const StalenessIndex& index,
                               obs::RequestTrace* trace) const;
  net::HttpResponse handle_summary(const net::HttpRequest& request,
                                   const StalenessIndex& index,
                                   obs::RequestTrace* trace);
  net::HttpResponse handle_revocation(const net::HttpRequest& request,
                                      const StalenessIndex& index,
                                      obs::RequestTrace* trace) const;
  net::HttpResponse handle_metrics(obs::RequestTrace* trace);
  net::HttpResponse handle_statusz(
      const net::HttpRequest& request,
      const std::shared_ptr<const StalenessIndex>& index,
      obs::RequestTrace* trace);
  net::HttpResponse handle_ingest(const net::HttpRequest& request,
                                  obs::RequestTrace* trace);

  /// The serialized section of an ingest: runs the handler and publishes
  /// the successor snapshot. Must not throw — the try_ingest path releases
  /// the mutex manually after it returns (handler failures come back as
  /// statuses, never exceptions).
  IngestOutcome apply_ingest_locked(const IngestSource& source)
      REQUIRES(ingest_mutex_);
  /// The unserialized tail of an ingest: metrics, gauges, event log.
  void record_ingest(const IngestOutcome& outcome, const IngestSource& source,
                     std::chrono::steady_clock::time_point start);

  /// Folds the sliding windows into registry gauges (qps, quantiles, SLO
  /// burn rates) so /metrics exposes them; called at scrape time.
  void export_window_gauges();
  [[nodiscard]] std::string statusz_json(
      const std::shared_ptr<const StalenessIndex>& index);
  void finish_request(const net::HttpRequest& request,
                      net::HttpResponse* response,
                      obs::RequestTrace trace, const std::string& endpoint,
                      std::chrono::nanoseconds elapsed);

  std::string archive_path_;
  ServiceOptions options_;
  SnapshotCell cell_;
  obs::MetricsRegistry registry_;
  obs::EventLog log_;
  obs::SlowTraceRing slow_ring_;
  std::atomic<std::uint64_t> next_trace_id_{0};
  std::chrono::steady_clock::time_point started_;
  /// steady-clock offset (ns since started_) of the last successful load;
  /// -1 until the first one. Drives the /statusz snapshot age.
  std::atomic<std::int64_t> last_load_offset_ns_{-1};
  /// Fixed endpoint set, built in the constructor and never mutated, so
  /// concurrent request threads read it lock-free.
  std::map<std::string, EndpointWindow> windows_;

  // --- Feed mode (live delta ingestion) ---
  IngestHandler ingest_handler_;
  /// Serializes delta application (the handler mutates applier state; the
  /// published snapshots themselves are immutable and lock-free to read).
  /// No field is tagged GUARDED_BY it: the handler's state lives behind
  /// the FeedRuntime's own annotated mutex.
  util::Mutex ingest_mutex_;
  std::atomic<std::uint64_t> deltas_applied_{0};
  std::atomic<std::uint64_t> ingest_errors_{0};
  std::atomic<std::uint64_t> ingest_rebuilds_{0};
  std::atomic<std::uint64_t> feed_generation_{0};
  /// Horizon (days since epoch) after the last successful ingest;
  /// INT64_MIN until one happens.
  std::atomic<std::int64_t> feed_horizon_days_{INT64_MIN};
  /// steady-clock offset of the last successful ingest (ns since
  /// started_); -1 until one happens. Drives the /statusz ingest lag.
  std::atomic<std::int64_t> last_ingest_offset_ns_{-1};
};

}  // namespace stalecert::query
