#include "stalecert/cluster/router.hpp"

#include <unistd.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "stalecert/obs/exposition.hpp"
#include "stalecert/util/strings.hpp"

namespace stalecert::cluster {

namespace {

using Clock = std::chrono::steady_clock;

/// Same bucket layout as staled's request histograms so the two tiers'
/// latency quantiles are directly comparable.
std::vector<double> latency_bounds() {
  return {1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 0.25, 1.0};
}

std::vector<double> fanout_bounds() { return {1, 2, 3, 4, 6, 8, 12, 16}; }

net::HttpResponse shard_unavailable(unsigned shard, unsigned count) {
  net::HttpResponse response{
      503, "application/json",
      "{\"error\":\"shard " + ShardRef{shard, count}.label() +
          " unavailable after retry\"}\n"};
  response.headers["Retry-After"] = "1";
  return response;
}

/// Extracts the raw text of `"<key>":{...}` (exclusive of the braces).
std::optional<std::string> extract_json_object(std::string_view body,
                                               std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":{";
  const auto at = body.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t begin = at + needle.size();
  const auto end = body.find('}', begin);  // flat objects only
  if (end == std::string_view::npos) return std::nullopt;
  return std::string(body.substr(begin, end - begin));
}

/// Extracts the string value of `"<key>":"..."` (raw, still escaped).
std::optional<std::string> extract_json_string(std::string_view body,
                                               std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const auto at = body.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t begin = at + needle.size();
  std::string out;
  for (std::size_t i = begin; i < body.size(); ++i) {
    if (body[i] == '\\' && i + 1 < body.size()) {
      out.push_back(body[i]);
      out.push_back(body[i + 1]);
      ++i;
      continue;
    }
    if (body[i] == '"') return out;
    out.push_back(body[i]);
  }
  return std::nullopt;
}

}  // namespace

std::vector<std::string> split_json_array(std::string_view array_text) {
  std::vector<std::string> elements;
  std::size_t element_begin = 0;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < array_text.size(); ++i) {
    const char c = array_text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '[':
      case '{': ++depth; break;
      case ']':
      case '}': --depth; break;
      case ',':
        if (depth == 0) {
          elements.emplace_back(array_text.substr(element_begin,
                                                  i - element_begin));
          element_begin = i + 1;
        }
        break;
      default: break;
    }
  }
  if (element_begin < array_text.size()) {
    elements.emplace_back(array_text.substr(element_begin));
  }
  return elements;
}

std::optional<std::uint64_t> extract_json_uint(std::string_view body,
                                               std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto at = body.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  if (i >= body.size() || body[i] < '0' || body[i] > '9') return std::nullopt;
  std::uint64_t value = 0;
  for (; i < body.size() && body[i] >= '0' && body[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::uint64_t>(body[i] - '0');
  }
  return value;
}

std::string merge_summary_bodies(const std::vector<std::string>& bodies,
                                 const std::vector<unsigned>& missing) {
  // The shard tag makes each shard's profile unique; the merged body
  // reports the world's own profile, which is the text before the tag.
  std::string profile = extract_json_string(bodies.front(), "profile")
                            .value_or("");
  if (const auto tag = profile.find("#shard-"); tag != std::string::npos) {
    profile.resize(tag);
  }

  std::uint64_t generation = 0;
  std::uint64_t certificates = 0;
  std::uint64_t stale_records = 0;
  std::uint64_t distinct_keys = 0;
  std::uint64_t revoked_serials = 0;
  std::vector<std::string> class_names;
  std::vector<std::uint64_t> class_counts;
  bool first = true;
  for (const auto& body : bodies) {
    const std::uint64_t g = extract_json_uint(body, "generation").value_or(0);
    generation = first ? g : std::min(generation, g);
    certificates += extract_json_uint(body, "certificates").value_or(0);
    stale_records += extract_json_uint(body, "stale_records").value_or(0);
    distinct_keys += extract_json_uint(body, "distinct_keys").value_or(0);
    revoked_serials += extract_json_uint(body, "revoked_serials").value_or(0);
    // by_class is a flat `"name":count` map with the same key order on
    // every shard (class order is fixed by the index, not the data).
    const auto by_class = extract_json_object(body, "by_class").value_or("");
    const auto entries = split_json_array(by_class);
    if (first) class_counts.assign(entries.size(), 0);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto colon = entries[i].rfind(':');
      if (colon == std::string::npos || i >= class_counts.size()) continue;
      if (first) class_names.push_back(entries[i].substr(0, colon));
      std::uint64_t value = 0;
      for (std::size_t j = colon + 1; j < entries[i].size(); ++j) {
        const char c = entries[i][j];
        if (c < '0' || c > '9') break;
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
      }
      class_counts[i] += value;
    }
    first = false;
  }

  std::ostringstream out;
  out << "{\"profile\":\"" << profile << "\",\"seed\":"
      << extract_json_uint(bodies.front(), "seed").value_or(0)
      << ",\"window\":{\"start\":\""
      << extract_json_string(bodies.front(), "start").value_or("")
      << "\",\"end\":\""
      << extract_json_string(bodies.front(), "end").value_or("")
      << "\"},\"generation\":" << generation
      << ",\"certificates\":" << certificates
      << ",\"stale_records\":" << stale_records << ",\"by_class\":{";
  for (std::size_t i = 0; i < class_names.size(); ++i) {
    if (i > 0) out << ",";
    out << class_names[i] << ":" << class_counts[i];
  }
  out << "},\"distinct_keys\":" << distinct_keys
      << ",\"revoked_serials\":" << revoked_serials;
  if (!missing.empty()) {
    out << ",\"partial\":true,\"shards_missing\":[";
    for (std::size_t i = 0; i < missing.size(); ++i) {
      if (i > 0) out << ",";
      out << missing[i];
    }
    out << "]";
  }
  out << "}\n";
  return out.str();
}

RouterService::RouterService(RouterOptions options)
    : options_(std::move(options)),
      plan_(static_cast<unsigned>(options_.shards.empty()
                                      ? 1
                                      : options_.shards.size())),
      started_(Clock::now()) {
  if (options_.shards.empty()) {
    throw std::invalid_argument("RouterService: no shard endpoints");
  }
  states_.reserve(options_.shards.size());
  for (std::size_t k = 0; k < options_.shards.size(); ++k) {
    states_.push_back(std::make_unique<ShardState>());
    const std::string shard = std::to_string(k);
    registry_
        .gauge("stalecert_router_shard_healthy", {{"shard", shard}},
               "1 while the shard answers, 0 after a failed exchange/probe")
        .set(1.0);
    registry_.counter("stalecert_router_shard_errors_total",
                      {{"shard", shard}},
                      "Failed exchanges with this shard (after retry)");
    registry_.histogram("stalecert_router_shard_request_seconds",
                        latency_bounds(), {{"shard", shard}},
                        "Per-shard forwarded request latency");
  }
  registry_.histogram("stalecert_router_fanout_shards", fanout_bounds(), {},
                      "Shards contacted per routed request");
}

RouterService::~RouterService() {
  stop();
  for (auto& state : states_) {
    const util::MutexLock lock(state->pool_mutex);
    for (const int fd : state->idle) ::close(fd);
    state->idle.clear();
  }
}

void RouterService::start() {
  if (options_.health_interval.count() <= 0 || probe_.joinable()) return;
  probe_ = std::thread([this] { probe_loop(); });
}

void RouterService::stop() {
  stopping_.store(true);
  if (probe_.joinable()) probe_.join();
}

void RouterService::probe_loop() {
  while (!stopping_.load()) {
    for (unsigned k = 0; k < shard_count() && !stopping_.load(); ++k) {
      // One fresh connection per probe (never pooled), single attempt.
      const std::vector<net::FetchSpec> spec = {
          {options_.shards[k].host, options_.shards[k].port, "/healthz", -1}};
      auto results = net::fetch_all(spec, options_.timeout, /*attempts=*/1);
      const bool up =
          results[0].outcome == net::FetchResult::Outcome::kOk &&
          results[0].status == 200;
      if (results[0].keep_fd >= 0) ::close(results[0].keep_fd);
      mark_shard(k, up, "probe");
    }
    // Sleep in short slices so stop() is prompt.
    auto remaining = options_.health_interval;
    while (remaining.count() > 0 && !stopping_.load()) {
      const auto slice = std::min(remaining, std::chrono::milliseconds(50));
      std::this_thread::sleep_for(slice);
      remaining -= slice;
    }
  }
}

void RouterService::mark_shard(unsigned shard, bool healthy,
                               const std::string& origin) {
  const bool was = states_[shard]->healthy.exchange(healthy,
                                                   std::memory_order_relaxed);
  if (was == healthy) return;
  registry_
      .gauge("stalecert_router_shard_healthy",
             {{"shard", std::to_string(shard)}})
      .set(healthy ? 1.0 : 0.0);
  const auto& endpoint = options_.shards[shard];
  const obs::LogFields fields = {
      {"shard", ShardRef{shard, shard_count()}.label()},
      {"endpoint", endpoint.host + ":" + std::to_string(endpoint.port)},
      {"origin", origin}};
  if (healthy) {
    log_.info("shard up", fields);
  } else {
    log_.warn("shard down", fields);
  }
}

std::vector<std::optional<net::FetchResult>> RouterService::exchange(
    const std::vector<unsigned>& shards, const std::string& target) {
  // Check a pooled keep-alive socket out per leg; net::fetch_all owns it
  // from here (a failed attempt closes it and retries on a fresh
  // connection — the benign server-closed-idle-connection case).
  std::vector<net::FetchSpec> specs;
  specs.reserve(shards.size());
  for (const unsigned shard : shards) {
    auto& state = *states_[shard];
    int reuse = -1;
    {
      const util::MutexLock lock(state.pool_mutex);
      if (!state.idle.empty()) {
        reuse = state.idle.back();
        state.idle.pop_back();
      }
    }
    specs.push_back({options_.shards[shard].host, options_.shards[shard].port,
                     target, reuse});
  }

  // Every leg flies at once on one event loop, each under the full
  // per-shard deadline; the gather takes max(legs), not sum(legs).
  auto raw = net::fetch_all(specs, options_.timeout, /*attempts=*/2);

  std::vector<std::optional<net::FetchResult>> results(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const unsigned shard = shards[i];
    auto& leg = raw[i];
    if (leg.outcome == net::FetchResult::Outcome::kOk) {
      registry_
          .histogram("stalecert_router_shard_request_seconds",
                     latency_bounds(), {{"shard", std::to_string(shard)}})
          .observe(std::chrono::duration<double>(leg.elapsed).count());
      if (leg.keep_fd >= 0) {
        auto& state = *states_[shard];
        const util::MutexLock lock(state.pool_mutex);
        state.idle.push_back(leg.keep_fd);
        leg.keep_fd = -1;
      }
      mark_shard(shard, true, "request");
      results[i] = std::move(leg);
    } else {
      registry_
          .counter("stalecert_router_shard_errors_total",
                   {{"shard", std::to_string(shard)}})
          .inc();
      mark_shard(shard, false, "request");
    }
  }
  return results;
}

std::vector<std::optional<net::FetchResult>> RouterService::scatter(
    const std::string& target) {
  std::vector<unsigned> all(shard_count());
  for (unsigned k = 0; k < shard_count(); ++k) all[k] = k;
  return exchange(all, target);
}

net::HttpResponse RouterService::forward_point(
    unsigned shard, const net::HttpRequest& request) {
  const auto result = std::move(exchange({shard}, request.target)[0]);
  if (!result) return shard_unavailable(shard, shard_count());
  return {result->status, result->content_type, result->body};
}

net::HttpResponse RouterService::gather_summary() {
  const auto results = scatter("/v1/summary");
  std::vector<std::string> bodies;
  std::vector<unsigned> missing;
  for (unsigned k = 0; k < shard_count(); ++k) {
    if (results[k] && results[k]->status == 200) {
      bodies.push_back(results[k]->body);
    } else {
      missing.push_back(k);
    }
  }
  if (bodies.empty()) {
    net::HttpResponse response{503, "application/json",
                               "{\"error\":\"no shard answered\"}\n"};
    response.headers["Retry-After"] = "1";
    return response;
  }
  return {200, "application/json", merge_summary_bodies(bodies, missing)};
}

net::HttpResponse RouterService::statusz() {
  std::ostringstream out;
  out << "{\"build\":\"" << net::json_escape(options_.build_info)
      << "\",\"uptime_seconds\":"
      << std::chrono::duration<double>(Clock::now() - started_).count()
      << ",\"shard_count\":" << shard_count() << ",\"shards\":[";
  const auto results = scatter("/statusz");
  for (unsigned k = 0; k < shard_count(); ++k) {
    if (k > 0) out << ",";
    const auto& endpoint = options_.shards[k];
    out << "{\"index\":" << k << ",\"endpoint\":\""
        << net::json_escape(endpoint.host + ":" +
                              std::to_string(endpoint.port))
        << "\"";
    if (results[k] && results[k]->status == 200) {
      out << ",\"healthy\":true,\"generation\":"
          << extract_json_uint(results[k]->body, "generation").value_or(0);
    } else {
      out << ",\"healthy\":false";
    }
    out << "}";
  }
  out << "],\"events\":[";
  const auto events = log_.tail(32);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out << ",";
    out << obs::to_jsonl(events[i]);
  }
  out << "]}\n";
  return {200, "application/json", out.str()};
}

void RouterService::observe_request(const char* endpoint, int status,
                                    Clock::time_point start, unsigned fanout) {
  registry_
      .counter("stalecert_router_requests_total",
               {{"endpoint", endpoint}, {"code", std::to_string(status)}},
               "Requests routed, by endpoint and status code")
      .inc();
  registry_
      .histogram("stalecert_router_request_duration_seconds", latency_bounds(),
                 {{"endpoint", endpoint}}, "Routed request latency")
      .observe(std::chrono::duration<double>(Clock::now() - start).count());
  if (fanout > 0) {
    registry_.histogram("stalecert_router_fanout_shards", fanout_bounds(), {})
        .observe(static_cast<double>(fanout));
  }
}

net::HttpResponse RouterService::handle(const net::HttpRequest& request) {
  const auto start = Clock::now();
  const std::string& path = request.path;
  const char* endpoint = "other";
  unsigned fanout = 0;
  net::HttpResponse response;

  if (path == "/ingest") {
    endpoint = "ingest";
    response = {404, "application/json",
                "{\"error\":\"no ingest at the router: POST deltas to the "
                "owning shard's staled\"}\n"};
  } else if (request.method != "GET" && request.method != "HEAD") {
    response = {405, "text/plain", "method not allowed\n"};
  } else if (path == "/healthz") {
    endpoint = "healthz";
    std::vector<unsigned> down;
    for (unsigned k = 0; k < shard_count(); ++k) {
      if (!shard_healthy(k)) down.push_back(k);
    }
    if (down.empty()) {
      response = {200, "text/plain", "ok\n"};
    } else {
      std::ostringstream out;
      out << "degraded: shards down:";
      for (const unsigned k : down) out << " " << k;
      out << "\n";
      response = {503, "text/plain", out.str()};
    }
  } else if (path == "/metrics") {
    endpoint = "metrics";
    response = {200, "text/plain; version=0.0.4",
                obs::to_prometheus(registry_.snapshot())};
  } else if (path == "/statusz") {
    endpoint = "statusz";
    fanout = shard_count();
    response = statusz();
  } else if (path == "/v1/stale") {
    endpoint = "stale";
    fanout = 1;
    const auto domain = request.param("domain");
    // Without a domain any shard reproduces the single-node 400.
    const unsigned shard =
        domain && !domain->empty() ? plan_.shard_for_domain(*domain) : 0;
    response = forward_point(shard, request);
  } else if (path == "/v1/summary") {
    const auto domain = request.param("domain");
    if (domain && !domain->empty()) {
      endpoint = "summary";
      fanout = 1;
      response = forward_point(plan_.shard_for_domain(*domain), request);
    } else {
      endpoint = "summary";
      fanout = shard_count();
      response = gather_summary();
    }
  } else if (util::starts_with(path, "/v1/key/")) {
    endpoint = "key";
    fanout = 1;
    const std::string spki = path.substr(std::string("/v1/key/").size());
    response =
        forward_point(plan_.shard_for_key(util::to_lower(spki)), request);
  } else if (path == "/v1/revocation") {
    endpoint = "revocation";
    fanout = 1;
    const auto serial = request.param("serial");
    // Without a serial any shard reproduces the single-node 400.
    const unsigned shard = serial && !serial->empty()
                               ? plan_.shard_for_key(util::to_lower(*serial))
                               : 0;
    response = forward_point(shard, request);
  } else {
    response = {404, "application/json", "{\"error\":\"no such endpoint\"}\n"};
  }

  observe_request(endpoint, response.status, start, fanout);
  return response;
}

}  // namespace stalecert::cluster
