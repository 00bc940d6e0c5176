#include "stalecert/query/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "stalecert/obs/exposition.hpp"
#include "stalecert/obs/quantile.hpp"
#include "stalecert/util/strings.hpp"

namespace stalecert::query {

namespace {

using Clock = std::chrono::steady_clock;

/// Latency buckets: 1µs .. 1s, roughly ×4 steps — point lookups sit at the
/// bottom, archive-sized summaries near the middle. The windowed histograms
/// share these bounds so lifetime and windowed quantiles are comparable.
std::vector<double> latency_bounds() {
  return {1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 0.25, 1.0};
}

/// The fixed endpoint label set; windows_ is keyed by exactly these.
constexpr const char* kEndpoints[] = {"stale",   "key",     "summary",
                                      "revocation", "healthz", "metrics",
                                      "statusz", "ingest",  "other"};

constexpr std::chrono::seconds kWindows[] = {std::chrono::seconds(60),
                                             std::chrono::seconds(300)};

const char* window_label(std::chrono::seconds window) {
  return window == std::chrono::seconds(60) ? "1m" : "5m";
}

std::string date_json(util::Date d) { return "\"" + d.to_string() + "\""; }

std::string format_double(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

std::string micros_fixed(std::chrono::nanoseconds d) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.1f", static_cast<double>(d.count()) / 1e3);
  return buf;
}

net::HttpResponse bad_request(const std::string& detail) {
  return {400, "application/json",
          "{\"error\":\"" + net::json_escape(detail) + "\"}\n"};
}

void append_record_json(std::ostringstream& out, const StalenessIndex& index,
                        std::uint32_t record_index) {
  const StaleRecord& record = index.record(record_index);
  const auto& cert = index.corpus().at(record.cert_index);
  out << "{\"class\":\"" << net::json_escape(core::to_string(record.cls))
      << "\",\"event_date\":" << date_json(record.event_date)
      << ",\"staleness_begin\":" << date_json(record.staleness.begin())
      << ",\"staleness_end\":" << date_json(record.staleness.end())
      << ",\"staleness_days\":" << record.staleness.days()
      << ",\"trigger_domain\":\"" << net::json_escape(record.trigger_domain)
      << "\",\"serial\":\"" << net::json_escape(cert.serial_hex())
      << "\",\"spki\":\""
      << net::json_escape(cert.subject_key().fingerprint_hex()) << "\"";
  if (record.reason) {
    out << ",\"reason\":\""
        << net::json_escape(revocation::to_string(*record.reason)) << "\"";
  }
  out << "}";
}

/// Error-budget burn rate: observed bad fraction over the allowed bad
/// fraction. 1.0 means burning budget exactly as fast as the SLO allows.
double burn_rate(std::uint64_t bad, std::uint64_t total, double allowed) {
  if (total == 0 || allowed <= 0.0) return 0.0;
  return (static_cast<double>(bad) / static_cast<double>(total)) / allowed;
}

/// RAII span timer against a RequestTrace (null-safe).
class TraceSpan {
 public:
  TraceSpan(obs::RequestTrace* trace, const char* name)
      : trace_(trace), name_(name), start_(Clock::now()) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (trace_ != nullptr) trace_->add_span(name_, Clock::now() - start_);
  }

 private:
  obs::RequestTrace* trace_;
  const char* name_;
  Clock::time_point start_;
};

}  // namespace

StaledService::EndpointWindow::EndpointWindow()
    : requests(std::chrono::seconds(300), std::chrono::seconds(5)),
      errors(std::chrono::seconds(300), std::chrono::seconds(5)),
      slow(std::chrono::seconds(300), std::chrono::seconds(5)),
      latency(latency_bounds(), std::chrono::seconds(300),
              std::chrono::seconds(5)) {}

StaledService::StaledService(std::string archive_path, ServiceOptions options)
    : archive_path_(std::move(archive_path)),
      options_(std::move(options)),
      slow_ring_(options_.slow_trace_capacity),
      started_(Clock::now()) {
  // Pre-register the reload counters so /metrics shows them at zero.
  registry_.counter("stalecert_staled_reloads_total", {{"result", "ok"}},
                    "Successful snapshot reloads");
  registry_.counter("stalecert_staled_reloads_total", {{"result", "error"}},
                    "Failed snapshot reloads (previous snapshot kept)");
  if (options_.shard_count > 0) {
    registry_
        .gauge("stalecert_staled_shard_index", {},
               "This process's shard number within the cluster partition")
        .set(static_cast<double>(options_.shard_index));
    registry_
        .gauge("stalecert_staled_shard_count", {},
               "Total shards in the cluster partition (0 = unsharded)")
        .set(static_cast<double>(options_.shard_count));
  }
  for (const char* endpoint : kEndpoints) windows_.try_emplace(endpoint);
}

void StaledService::load() {
  const auto build_start = Clock::now();
  auto index = options_.snapshot_builder
                   ? options_.snapshot_builder(archive_path_)
                   : StalenessIndex::from_archive(archive_path_);
  registry_
      .gauge("stalecert_staled_index_stale_records", {},
             "Stale records in the serving snapshot")
      .set(static_cast<double>(index->stats().stale_records));
  registry_
      .gauge("stalecert_staled_index_certificates", {},
             "Corpus certificates in the serving snapshot")
      .set(static_cast<double>(index->stats().certificates));
  const std::uint64_t certificates = index->stats().certificates;
  const std::uint64_t stale_records = index->stats().stale_records;
  cell_.set(std::move(index));
  registry_
      .gauge("stalecert_staled_index_generation", {},
             "Monotonic serving snapshot generation")
      .set(static_cast<double>(cell_.generation()));
  const auto now = Clock::now();
  last_load_offset_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - started_)
          .count(),
      std::memory_order_relaxed);
  log_.info("snapshot loaded",
            {{"archive", archive_path_},
             {"generation", std::to_string(cell_.generation())},
             {"certificates", std::to_string(certificates)},
             {"stale_records", std::to_string(stale_records)},
             {"build_ms",
              std::to_string(std::chrono::duration_cast<std::chrono::milliseconds>(
                                 now - build_start)
                                 .count())}});
}

void StaledService::publish(std::shared_ptr<const StalenessIndex> index,
                            const std::string& source) {
  if (!index) return;
  registry_
      .gauge("stalecert_staled_index_stale_records", {},
             "Stale records in the serving snapshot")
      .set(static_cast<double>(index->stats().stale_records));
  registry_
      .gauge("stalecert_staled_index_certificates", {},
             "Corpus certificates in the serving snapshot")
      .set(static_cast<double>(index->stats().certificates));
  const std::uint64_t certificates = index->stats().certificates;
  const std::uint64_t stale_records = index->stats().stale_records;
  cell_.set(std::move(index));
  registry_
      .gauge("stalecert_staled_index_generation", {},
             "Monotonic serving snapshot generation")
      .set(static_cast<double>(cell_.generation()));
  last_ingest_offset_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           started_)
          .count(),
      std::memory_order_relaxed);
  last_load_offset_ns_.store(
      last_ingest_offset_ns_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  log_.info("snapshot published",
            {{"source", source},
             {"generation", std::to_string(cell_.generation())},
             {"certificates", std::to_string(certificates)},
             {"stale_records", std::to_string(stale_records)}});
}

bool StaledService::reload() {
  const auto start = Clock::now();
  try {
    load();
    registry_.counter("stalecert_staled_reloads_total", {{"result", "ok"}}).inc();
    log_.info("reload ok",
              {{"generation", std::to_string(cell_.generation())},
               {"rebuild_ms",
                std::to_string(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   Clock::now() - start)
                                   .count())}});
    return true;
  } catch (const std::exception& e) {
    registry_.counter("stalecert_staled_reloads_total", {{"result", "error"}})
        .inc();
    log_.error("reload failed, previous snapshot kept",
               {{"archive", archive_path_}, {"error", e.what()}});
    return false;
  }
}

void StaledService::set_ingest_handler(IngestHandler handler) {
  ingest_handler_ = std::move(handler);
  if (!ingest_handler_) return;
  // Pre-register the ingest metrics so /metrics shows them at zero.
  registry_.counter("stalecert_staled_ingest_total", {{"result", "ok"}},
                    "Deltas applied to the serving snapshot");
  registry_.counter("stalecert_staled_ingest_total", {{"result", "error"}},
                    "Rejected deltas (previous snapshot kept)");
  registry_.counter("stalecert_staled_ingest_rebuilds_total", {},
                    "Deltas that fell back to a full pipeline rebuild");
  registry_.gauge("stalecert_staled_feed_generation", {},
                  "Deltas folded in since the base snapshot");
  registry_.gauge("stalecert_staled_feed_horizon_days", {},
                  "Last day covered by applied data, days since epoch");
  registry_.counter("stalecert_staled_ingest_busy_total", {},
                    "POST /ingest answered 503 because an apply was in flight");
}

IngestOutcome StaledService::ingest(const IngestSource& source) {
  if (!ingest_handler_) {
    return {.ok = false, .status = 404, .message = "feed mode disabled"};
  }
  const auto start = Clock::now();
  IngestOutcome outcome;
  {
    const util::MutexLock lock(ingest_mutex_);
    outcome = apply_ingest_locked(source);
  }
  record_ingest(outcome, source, start);
  return outcome;
}

std::optional<IngestOutcome> StaledService::try_ingest(
    const IngestSource& source) {
  if (!ingest_handler_) {
    return IngestOutcome{
        .ok = false, .status = 404, .message = "feed mode disabled"};
  }
  const auto start = Clock::now();
  if (!ingest_mutex_.try_lock()) return std::nullopt;
  const IngestOutcome outcome = apply_ingest_locked(source);
  ingest_mutex_.unlock();
  record_ingest(outcome, source, start);
  return outcome;
}

IngestOutcome StaledService::apply_ingest_locked(const IngestSource& source) {
  IngestOutcome outcome = ingest_handler_(source);
  if (outcome.ok && outcome.index) cell_.set(outcome.index);
  return outcome;
}

void StaledService::record_ingest(const IngestOutcome& outcome,
                                  const IngestSource& source,
                                  Clock::time_point start) {
  const auto now = Clock::now();
  const double seconds = std::chrono::duration<double>(now - start).count();
  registry_
      .histogram("stalecert_staled_ingest_apply_seconds", latency_bounds(), {},
                 "Wall-clock per delta apply (including failures)")
      .observe(seconds);

  const std::string origin_label =
      source.path.empty() ? source.origin : source.origin + " " + source.path;
  if (outcome.ok) {
    deltas_applied_.fetch_add(1, std::memory_order_relaxed);
    if (outcome.rebuilt) {
      ingest_rebuilds_.fetch_add(1, std::memory_order_relaxed);
      registry_.counter("stalecert_staled_ingest_rebuilds_total", {}).inc();
    }
    feed_generation_.store(outcome.feed_generation, std::memory_order_relaxed);
    registry_.counter("stalecert_staled_ingest_total", {{"result", "ok"}}).inc();
    registry_.gauge("stalecert_staled_feed_generation", {})
        .set(static_cast<double>(outcome.feed_generation));
    registry_.gauge("stalecert_staled_index_generation", {},
                    "Monotonic serving snapshot generation")
        .set(static_cast<double>(cell_.generation()));
    if (outcome.index) {
      registry_.gauge("stalecert_staled_index_stale_records", {})
          .set(static_cast<double>(outcome.index->stats().stale_records));
      registry_.gauge("stalecert_staled_index_certificates", {})
          .set(static_cast<double>(outcome.index->stats().certificates));
    }
    try {
      const util::Date horizon = util::Date::parse(outcome.horizon);
      feed_horizon_days_.store(horizon.days_since_epoch(),
                               std::memory_order_relaxed);
      registry_.gauge("stalecert_staled_feed_horizon_days", {})
          .set(static_cast<double>(horizon.days_since_epoch()));
    } catch (const ParseError&) {
      // Handler did not report a horizon; gauges keep their last value.
    }
    last_ingest_offset_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - started_)
            .count(),
        std::memory_order_relaxed);
    log_.info("delta applied",
              {{"source", origin_label},
               {"generation", std::to_string(outcome.feed_generation)},
               {"horizon", outcome.horizon},
               {"new_certificates", std::to_string(outcome.new_certificates)},
               {"new_stale_records", std::to_string(outcome.new_stale_records)},
               {"rebuilt", outcome.rebuilt ? "true" : "false"},
               {"apply_ms", format_double(seconds * 1e3)}});
  } else {
    ingest_errors_.fetch_add(1, std::memory_order_relaxed);
    registry_.counter("stalecert_staled_ingest_total", {{"result", "error"}})
        .inc();
    log_.warn("delta rejected, previous snapshot kept",
              {{"source", origin_label},
               {"status", std::to_string(outcome.status)},
               {"error", outcome.message}});
  }
}

net::HttpResponse StaledService::handle_ingest(const net::HttpRequest& request,
                                               obs::RequestTrace* trace) {
  if (!ingest_handler_) {
    return {404, "application/json",
            "{\"error\":\"feed mode disabled (start staled with "
            "--feed-dir or install an ingest handler)\"}\n"};
  }
  if (request.method != "POST") {
    return {405, "application/json",
            "{\"error\":\"POST a .scwd delta (raw body) or POST "
            "/ingest?path=<file>\"}\n"};
  }
  IngestSource source;
  source.origin = "http";
  if (const auto path = request.param("path"); path && !path->empty()) {
    source.path = *path;
  } else if (!request.body.empty()) {
    source.bytes = request.body;
  } else {
    return bad_request("empty ingest: send the .scwd bytes or ?path=");
  }

  const auto apply_start = Clock::now();
  const std::optional<IngestOutcome> applied = try_ingest(source);
  trace->add_span("apply", Clock::now() - apply_start);

  const TraceSpan serialize(trace, "serialize");
  if (!applied) {
    // Another delta apply holds the ingest mutex. Answer immediately so the
    // feeder can back off and retry instead of queueing requests behind a
    // rebuild; the poll loop and SIGHUP reload still use the blocking path.
    registry_.counter("stalecert_staled_ingest_busy_total", {}).inc();
    net::HttpResponse busy{503, "application/json",
                           "{\"applied\":false,\"error\":\"ingest busy: "
                           "another delta apply is in flight\"}\n"};
    busy.headers["Retry-After"] = "1";
    return busy;
  }
  const IngestOutcome& outcome = *applied;
  std::ostringstream out;
  if (!outcome.ok) {
    out << "{\"applied\":false,\"error\":\""
        << net::json_escape(outcome.message) << "\"}\n";
    return {outcome.status, "application/json", out.str()};
  }
  out << "{\"applied\":true,\"generation\":" << outcome.feed_generation
      << ",\"snapshot_generation\":" << cell_.generation()
      << ",\"horizon\":\"" << net::json_escape(outcome.horizon)
      << "\",\"new_certificates\":" << outcome.new_certificates
      << ",\"new_stale_records\":" << outcome.new_stale_records
      << ",\"rebuilt\":" << (outcome.rebuilt ? "true" : "false") << "}\n";
  return {200, "application/json", out.str()};
}

net::HttpResponse StaledService::handle(const net::HttpRequest& request) {
  const auto start = Clock::now();
  obs::RequestTrace trace;
  trace.id = next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  trace.target = request.target.empty() ? request.path : request.target;
  if (request.parse_duration.count() > 0) {
    trace.add_span("parse", request.parse_duration);
  }

  std::string endpoint = "other";
  const auto index = cell_.get();
  net::HttpResponse response = dispatch(request, &endpoint, index, &trace);
  response.trace_id = trace.id;

  finish_request(request, &response, std::move(trace), endpoint,
                 Clock::now() - start);
  return response;
}

void StaledService::finish_request(const net::HttpRequest& request,
                                   net::HttpResponse* response,
                                   obs::RequestTrace trace,
                                   const std::string& endpoint,
                                   std::chrono::nanoseconds elapsed) {
  trace.endpoint = endpoint;
  trace.status = response->status;
  trace.total = elapsed + request.parse_duration;

  const double seconds = std::chrono::duration<double>(trace.total).count();

  registry_
      .counter("stalecert_staled_requests_total",
               {{"endpoint", endpoint},
                {"code", std::to_string(response->status)}},
               "Requests served by endpoint and status code")
      .inc();
  registry_
      .histogram("stalecert_staled_request_duration_seconds", latency_bounds(),
                 {{"endpoint", endpoint}}, "Request latency by endpoint")
      .observe(seconds);

  EndpointWindow& window = windows_.at(endpoint);
  const auto now = Clock::now();
  window.requests.add(1, now);
  if (response->status >= 500) window.errors.add(1, now);
  if (seconds > options_.latency_slo_seconds) window.slow.add(1, now);
  window.latency.observe(seconds, now);

  if (trace.total >= options_.slow_threshold) {
    obs::LogFields fields = {{"endpoint", endpoint},
                             {"target", trace.target},
                             {"status", std::to_string(trace.status)},
                             {"trace_id", std::to_string(trace.id)},
                             {"total_us", micros_fixed(trace.total)}};
    for (const auto& [name, duration] : trace.spans) {
      fields.emplace_back(std::string(name) + "_us", micros_fixed(duration));
    }
    log_.warn("slow request", std::move(fields));
  }
  slow_ring_.offer(std::move(trace));
}

void StaledService::on_response_written(const net::HttpResponse& response,
                                        std::chrono::nanoseconds write_duration) {
  if (response.trace_id != 0) {
    slow_ring_.add_late_span(response.trace_id, "write", write_duration);
  }
  registry_
      .histogram("stalecert_staled_response_write_seconds", latency_bounds(), {},
                 "Socket write time per response")
      .observe(std::chrono::duration<double>(write_duration).count());
}

net::HttpResponse StaledService::dispatch(
    const net::HttpRequest& request, std::string* endpoint,
    const std::shared_ptr<const StalenessIndex>& index,
    obs::RequestTrace* trace) {
  const auto route_start = Clock::now();
  const std::string& path = request.path;
  const auto routed = [&](const char* name) {
    *endpoint = name;
    trace->add_span("route", Clock::now() - route_start);
  };

  // The server lets POST through for /ingest's sake; every other endpoint
  // is read-only.
  if (request.method == "POST" && path != "/ingest") {
    trace->add_span("route", Clock::now() - route_start);
    return {405, "text/plain", "method not allowed\n"};
  }

  if (path == "/healthz") {
    routed("healthz");
    const TraceSpan serialize(trace, "serialize");
    if (index == nullptr) return {503, "text/plain", "loading\n"};
    return {200, "text/plain", "ok\n"};
  }
  if (path == "/metrics") {
    routed("metrics");
    return handle_metrics(trace);
  }
  if (path == "/statusz") {
    routed("statusz");
    return handle_statusz(request, index, trace);
  }
  if (path == "/ingest") {
    routed("ingest");
    return handle_ingest(request, trace);
  }

  if (index == nullptr) {
    trace->add_span("route", Clock::now() - route_start);
    return {503, "application/json", "{\"error\":\"index not loaded\"}\n"};
  }
  if (path == "/v1/stale") {
    routed("stale");
    return handle_stale(request, *index, trace);
  }
  if (util::starts_with(path, "/v1/key/")) {
    routed("key");
    return handle_key(path.substr(std::string("/v1/key/").size()), *index,
                      trace);
  }
  if (path == "/v1/summary") {
    routed("summary");
    return handle_summary(request, *index, trace);
  }
  if (path == "/v1/revocation") {
    routed("revocation");
    return handle_revocation(request, *index, trace);
  }
  trace->add_span("route", Clock::now() - route_start);
  return {404, "application/json", "{\"error\":\"no such endpoint\"}\n"};
}

net::HttpResponse StaledService::handle_stale(const net::HttpRequest& request,
                                              const StalenessIndex& index,
                                              obs::RequestTrace* trace) const {
  const auto domain = request.param("domain");
  const auto date_text = request.param("date");
  if (!domain || domain->empty()) return bad_request("missing domain parameter");
  if (!date_text || date_text->empty()) return bad_request("missing date parameter");
  util::Date date;
  try {
    date = util::Date::parse(*date_text);
  } catch (const ParseError&) {
    return bad_request("bad date (want YYYY-MM-DD): " + *date_text);
  }

  const auto lookup_start = Clock::now();
  const auto matches = index.stale_records_for(*domain, date);
  trace->add_span("lookup", Clock::now() - lookup_start);

  const TraceSpan serialize(trace, "serialize");
  std::ostringstream out;
  out << "{\"domain\":\"" << net::json_escape(normalize_domain(*domain))
      << "\",\"date\":" << date_json(date) << ",\"stale\":"
      << (matches.empty() ? "false" : "true") << ",\"matches\":[";
  for (std::size_t i = 0; i < matches.size(); ++i) {
    if (i > 0) out << ",";
    append_record_json(out, index, matches[i]);
  }
  out << "]}\n";
  return {200, "application/json", out.str()};
}

net::HttpResponse StaledService::handle_key(const std::string& spki_hex,
                                            const StalenessIndex& index,
                                            obs::RequestTrace* trace) const {
  if (spki_hex.empty()) return bad_request("missing SPKI fingerprint");
  const auto lookup_start = Clock::now();
  const auto certs = index.certs_for_key(spki_hex);
  trace->add_span("lookup", Clock::now() - lookup_start);

  const TraceSpan serialize(trace, "serialize");
  // Render each certificate to its JSON object, then sort and dedup the
  // rendered strings. This makes the payload a pure function of the
  // certificate set: a single node and the key's home shard (which numbers
  // the same certificates differently) agree byte for byte.
  std::vector<std::string> rendered;
  rendered.reserve(certs.size());
  for (const std::uint32_t cert_index : certs) {
    const auto& cert = index.corpus().at(cert_index);
    std::ostringstream item;
    item << "{\"serial\":\"" << net::json_escape(cert.serial_hex())
         << "\",\"not_before\":" << date_json(cert.not_before())
         << ",\"not_after\":" << date_json(cert.not_after()) << ",\"names\":[";
    const auto names = cert.dns_names();
    for (std::size_t j = 0; j < names.size(); ++j) {
      if (j > 0) item << ",";
      item << "\"" << net::json_escape(names[j]) << "\"";
    }
    item << "]}";
    rendered.push_back(item.str());
  }
  std::sort(rendered.begin(), rendered.end());
  rendered.erase(std::unique(rendered.begin(), rendered.end()),
                 rendered.end());

  std::ostringstream out;
  out << "{\"spki\":\"" << net::json_escape(util::to_lower(spki_hex))
      << "\",\"certificates\":[";
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    if (i > 0) out << ",";
    out << rendered[i];
  }
  out << "]}\n";
  return {200, "application/json", out.str()};
}

net::HttpResponse StaledService::handle_summary(const net::HttpRequest& request,
                                                const StalenessIndex& index,
                                                obs::RequestTrace* trace) {
  std::ostringstream out;
  if (const auto domain = request.param("domain"); domain && !domain->empty()) {
    const auto lookup_start = Clock::now();
    const DomainSummary summary = index.stale_summary(*domain);
    trace->add_span("lookup", Clock::now() - lookup_start);

    const TraceSpan serialize(trace, "serialize");
    out << "{\"domain\":\"" << net::json_escape(summary.domain)
        << "\",\"certificates\":" << summary.certificates
        << ",\"stale_total\":" << summary.stale_total() << ",\"by_class\":{";
    for (std::size_t i = 0; i < core::kAllStaleClasses.size(); ++i) {
      if (i > 0) out << ",";
      out << "\""
          << net::json_escape(core::to_string(core::kAllStaleClasses[i]))
          << "\":" << summary.stale_by_class[i];
    }
    out << "}";
    if (summary.earliest_event) {
      out << ",\"earliest_event\":" << date_json(*summary.earliest_event);
    }
    if (summary.latest_staleness_end) {
      out << ",\"latest_staleness_end\":"
          << date_json(*summary.latest_staleness_end);
    }
    out << "}\n";
    return {200, "application/json", out.str()};
  }

  const TraceSpan serialize(trace, "serialize");
  // A sharded node reports its OWNED slice (each entity attributed to
  // exactly one shard) so the router can sum shard summaries into the
  // exact single-node numbers. Traffic-dependent request quantiles live on
  // /statusz, not here: the body must be a pure function of the data so
  // merged cluster summaries can be byte-compared against single-node.
  const auto& stats = index.sharded() ? index.owned_stats() : index.stats();
  const auto& meta = index.meta();
  out << "{\"profile\":\"" << net::json_escape(meta.profile)
      << "\",\"seed\":" << meta.seed << ",\"window\":{\"start\":"
      << date_json(meta.start) << ",\"end\":" << date_json(meta.end)
      << "},\"generation\":" << cell_.generation()
      << ",\"certificates\":" << stats.certificates
      << ",\"stale_records\":" << stats.stale_records << ",\"by_class\":{";
  for (std::size_t i = 0; i < core::kAllStaleClasses.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << net::json_escape(core::to_string(core::kAllStaleClasses[i]))
        << "\":" << stats.by_class[i];
  }
  out << "},\"distinct_keys\":" << stats.distinct_keys
      << ",\"revoked_serials\":" << stats.revoked_serials << "}\n";
  return {200, "application/json", out.str()};
}

net::HttpResponse StaledService::handle_revocation(
    const net::HttpRequest& request, const StalenessIndex& index,
    obs::RequestTrace* trace) const {
  const auto serial = request.param("serial");
  if (!serial || serial->empty()) return bad_request("missing serial parameter");
  const auto lookup_start = Clock::now();
  const auto status = index.revocation_status(*serial);
  trace->add_span("lookup", Clock::now() - lookup_start);

  const TraceSpan serialize(trace, "serialize");
  std::ostringstream out;
  out << "{\"serial\":\"" << net::json_escape(util::to_lower(*serial)) << "\"";
  if (status) {
    out << ",\"revoked\":true,\"revocation_date\":"
        << date_json(status->revocation_date) << ",\"reason\":\""
        << net::json_escape(revocation::to_string(status->reason))
        << "\",\"key_compromise\":"
        << (status->key_compromise() ? "true" : "false");
  } else {
    out << ",\"revoked\":false";
  }
  out << "}\n";
  return {200, "application/json", out.str()};
}

net::HttpResponse StaledService::handle_metrics(obs::RequestTrace* trace) {
  const TraceSpan serialize(trace, "serialize");
  export_window_gauges();
  return {200, "text/plain; version=0.0.4",
          obs::to_prometheus(registry_.snapshot())};
}

void StaledService::export_window_gauges() {
  const auto now = Clock::now();
  for (const auto window : kWindows) {
    const char* label = window_label(window);
    std::uint64_t total = 0;
    std::uint64_t errors = 0;
    std::uint64_t slow = 0;
    for (const auto& [endpoint, ew] : windows_) {
      const std::uint64_t requests = ew.requests.sum(window, now);
      total += requests;
      errors += ew.errors.sum(window, now);
      slow += ew.slow.sum(window, now);
      registry_
          .gauge("stalecert_staled_window_qps",
                 {{"endpoint", endpoint}, {"window", label}},
                 "Requests per second over the trailing window")
          .set(ew.requests.rate_per_second(window, now));
      const auto sample = ew.latency.snapshot(window, now);
      const auto summary = obs::summarize_histogram(sample);
      registry_
          .gauge("stalecert_staled_window_latency_seconds",
                 {{"endpoint", endpoint}, {"window", label}, {"quantile", "0.5"}},
                 "Windowed request latency quantile")
          .set(summary.p50);
      registry_
          .gauge(
              "stalecert_staled_window_latency_seconds",
              {{"endpoint", endpoint}, {"window", label}, {"quantile", "0.99"}},
              "Windowed request latency quantile")
          .set(summary.p99);
    }
    registry_
        .gauge("stalecert_staled_slo_burn_rate",
               {{"slo", "availability"}, {"window", label}},
               "Error-budget burn rate (1.0 = burning exactly at the SLO)")
        .set(burn_rate(errors, total, 1.0 - options_.availability_slo));
    registry_
        .gauge("stalecert_staled_slo_burn_rate",
               {{"slo", "latency"}, {"window", label}},
               "Error-budget burn rate (1.0 = burning exactly at the SLO)")
        .set(burn_rate(slow, total, 1.0 - options_.latency_slo_fraction));
  }
}

std::string StaledService::statusz_json(
    const std::shared_ptr<const StalenessIndex>& index) {
  const auto now = Clock::now();
  const double uptime = std::chrono::duration<double>(now - started_).count();

  std::ostringstream out;
  out << "{\"build\":\"" << net::json_escape(options_.build_info)
      << "\",\"uptime_seconds\":" << format_double(uptime);

  if (options_.shard_count > 0) {
    out << ",\"shard\":{\"index\":" << options_.shard_index
        << ",\"count\":" << options_.shard_count << "}";
  }

  out << ",\"snapshot\":{\"loaded\":" << (index != nullptr ? "true" : "false")
      << ",\"generation\":" << cell_.generation() << ",\"archive\":\""
      << net::json_escape(archive_path_) << "\"";
  const std::int64_t load_offset =
      last_load_offset_ns_.load(std::memory_order_relaxed);
  if (load_offset >= 0) {
    const double age =
        std::chrono::duration<double>(now - started_).count() -
        static_cast<double>(load_offset) / 1e9;
    out << ",\"age_seconds\":" << format_double(std::max(age, 0.0));
  }
  if (index != nullptr) {
    out << ",\"certificates\":" << index->stats().certificates
        << ",\"stale_records\":" << index->stats().stale_records
        << ",\"patch_generation\":" << index->patch_generation()
        << ",\"levels\":" << index->level_count();
  }
  out << "}";

  out << ",\"feed\":{\"enabled\":" << (feed_enabled() ? "true" : "false");
  if (feed_enabled()) {
    if (!options_.feed_dir.empty()) {
      out << ",\"dir\":\"" << net::json_escape(options_.feed_dir) << "\"";
    }
    out << ",\"generation\":" << feed_generation_.load(std::memory_order_relaxed)
        << ",\"deltas_applied\":"
        << deltas_applied_.load(std::memory_order_relaxed)
        << ",\"rebuilds\":" << ingest_rebuilds_.load(std::memory_order_relaxed)
        << ",\"errors\":" << ingest_errors_.load(std::memory_order_relaxed);
    const std::int64_t horizon_days =
        feed_horizon_days_.load(std::memory_order_relaxed);
    if (horizon_days != INT64_MIN) {
      out << ",\"horizon\":" << date_json(util::Date(horizon_days));
    }
    const std::int64_t ingest_offset =
        last_ingest_offset_ns_.load(std::memory_order_relaxed);
    if (ingest_offset >= 0) {
      // Ingest lag: how stale the feed is, seconds since the last applied
      // delta.
      const double lag =
          std::chrono::duration<double>(now - started_).count() -
          static_cast<double>(ingest_offset) / 1e9;
      out << ",\"ingest_lag_seconds\":" << format_double(std::max(lag, 0.0));
    }
  }
  out << "}";

  out << ",\"windows\":{";
  bool first_endpoint = true;
  for (const auto& [endpoint, window] : windows_) {
    if (!first_endpoint) out << ",";
    first_endpoint = false;
    out << "\"" << endpoint << "\":{";
    bool first_window = true;
    for (const auto span : kWindows) {
      if (!first_window) out << ",";
      first_window = false;
      const auto summary = obs::summarize_histogram(window.latency.snapshot(span, now));
      out << "\"" << window_label(span) << "\":{\"requests\":"
          << window.requests.sum(span, now) << ",\"qps\":"
          << format_double(window.requests.rate_per_second(span, now))
          << ",\"p50_us\":" << format_double(summary.p50 * 1e6)
          << ",\"p90_us\":" << format_double(summary.p90 * 1e6)
          << ",\"p99_us\":" << format_double(summary.p99 * 1e6) << "}";
    }
    out << "}";
  }
  out << "}";

  out << ",\"slo\":{";
  for (std::size_t i = 0; i < 2; ++i) {
    const bool availability = i == 0;
    out << (i > 0 ? "," : "") << "\""
        << (availability ? "availability" : "latency") << "\":{";
    if (availability) {
      out << "\"target\":" << format_double(options_.availability_slo);
    } else {
      out << "\"target_seconds\":" << format_double(options_.latency_slo_seconds)
          << ",\"fraction\":" << format_double(options_.latency_slo_fraction);
    }
    for (const auto span : kWindows) {
      std::uint64_t total = 0;
      std::uint64_t bad = 0;
      for (const auto& [endpoint, window] : windows_) {
        total += window.requests.sum(span, now);
        bad += availability ? window.errors.sum(span, now)
                            : window.slow.sum(span, now);
      }
      const double allowed = availability ? 1.0 - options_.availability_slo
                                          : 1.0 - options_.latency_slo_fraction;
      out << ",\"burn_rate_" << window_label(span)
          << "\":" << format_double(burn_rate(bad, total, allowed));
    }
    out << "}";
  }
  out << "}";

  out << ",\"slow_traces\":[";
  const auto traces = slow_ring_.snapshot();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) out << ",";
    out << obs::to_json(traces[i]);
  }
  out << "]";

  out << ",\"events\":[";
  const auto events = log_.tail(32);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out << ",";
    out << obs::to_jsonl(events[i]);
  }
  out << "]}\n";
  return out.str();
}

net::HttpResponse StaledService::handle_statusz(
    const net::HttpRequest& request,
    const std::shared_ptr<const StalenessIndex>& index,
    obs::RequestTrace* trace) {
  const TraceSpan serialize(trace, "serialize");
  const auto format = request.param("format");
  if (!format || *format != "html") {
    return {200, "application/json", statusz_json(index)};
  }

  const auto now = Clock::now();
  std::ostringstream out;
  out << "<!DOCTYPE html><html><head><title>staled /statusz</title></head>"
         "<body><h1>staled</h1><p>"
      << net::json_escape(options_.build_info) << " &middot; uptime "
      << format_double(std::chrono::duration<double>(now - started_).count())
      << "s &middot; snapshot generation " << cell_.generation() << "</p>"
      << "<h2>windows (last 1m)</h2><pre>";
  for (const auto& [endpoint, window] : windows_) {
    const auto span = std::chrono::seconds(60);
    const auto summary = obs::summarize_histogram(window.latency.snapshot(span, now));
    char line[160];
    std::snprintf(line, sizeof line,
                  "%-11s %8.1f qps  p50 %9.1fus  p99 %9.1fus\n",
                  endpoint.c_str(), window.requests.rate_per_second(span, now),
                  summary.p50 * 1e6, summary.p99 * 1e6);
    out << line;
  }
  out << "</pre><h2>slowest recent requests</h2><pre>";
  for (const auto& slow_trace : slow_ring_.snapshot()) {
    out << net::json_escape(obs::to_json(slow_trace)) << "\n";
  }
  out << "</pre><h2>recent events</h2><pre>";
  for (const auto& event : log_.tail(32)) {
    out << net::json_escape(obs::to_human(event)) << "\n";
  }
  out << "</pre></body></html>\n";
  return {200, "text/html; charset=utf-8", out.str()};
}

obs::QuantileSummary StaledService::windowed_latency(
    const std::string& endpoint, std::chrono::seconds window) const {
  const auto it = windows_.find(endpoint);
  if (it == windows_.end()) return {};
  return obs::summarize_histogram(it->second.latency.snapshot(window));
}

double StaledService::windowed_qps(const std::string& endpoint,
                                   std::chrono::seconds window) const {
  const auto it = windows_.find(endpoint);
  if (it == windows_.end()) return 0.0;
  return it->second.requests.rate_per_second(window);
}

}  // namespace stalecert::query
