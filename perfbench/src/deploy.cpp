#include "deploy.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <thread>

#include "stalecert/cluster/shard.hpp"
#include "stalecert/cluster/split.hpp"
#include "stalecert/feed/delta.hpp"
#include "stalecert/feed/extend.hpp"
#include "stalecert/net/client.hpp"
#include "stalecert/net/http.hpp"
#include "stalecert/revocation/reasons.hpp"
#include "stalecert/sim/world.hpp"
#include "stalecert/store/archive.hpp"
#include "stalecert/util/strings.hpp"

namespace perfbench {

namespace sc = stalecert;

namespace {

constexpr std::size_t kMaxDeltaBody = 1 << 20;
constexpr unsigned kReactorThreads = 2;
constexpr unsigned kShardReactorThreads = 1;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string bytes_string(const std::vector<std::uint8_t>& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

/// Value of a non-negative integer JSON field, -1 when absent.
long long json_uint(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = body.find(needle);
  if (at == std::string::npos) return -1;
  std::size_t pos = at + needle.size();
  long long value = 0;
  bool any = false;
  while (pos < body.size() && body[pos] >= '0' && body[pos] <= '9') {
    value = value * 10 + (body[pos] - '0');
    ++pos;
    any = true;
  }
  return any ? value : -1;
}

std::size_t count_of(const std::string& body, const std::string& needle) {
  std::size_t count = 0;
  for (auto at = body.find(needle); at != std::string::npos;
       at = body.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

}  // namespace

Inputs make_inputs(std::uint64_t seed, const std::string& dir, unsigned days,
                   unsigned shards, SpanRecorder& spans, std::size_t parent) {
  std::filesystem::create_directories(dir);
  Inputs inputs;
  inputs.archive_path = dir + "/world.scw";
  const auto config = sc::feed::config_for_profile("small", seed);
  {
    sc::sim::World world(*config);
    {
      const ScopedSpan span(spans, "sim.generate", parent);
      world.run();
    }
    const ScopedSpan span(spans, "store.save", parent);
    inputs.archive_bytes =
        sc::store::save_world(world, inputs.archive_path, nullptr, "small");
  }
  const sc::store::ArchiveReader reader(inputs.archive_path);
  inputs.meta = reader.meta();
  {
    const ScopedSpan span(spans, "feed.extend", parent);
    for (const auto& delta : sc::feed::extend_world(inputs.meta, days, 1)) {
      inputs.deltas.push_back(bytes_string(sc::feed::write_delta_bytes(delta)));
    }
  }
  const sc::store::LoadedWorld world = sc::store::load_world(inputs.archive_path);
  for (const auto& log : world.ct_logs.logs()) {
    inputs.ct_entries += log.entries().size();
  }
  if (shards > 0) {
    const ScopedSpan span(spans, "cluster.split", parent);
    const sc::cluster::ShardPlan plan(shards);
    inputs.shard_paths =
        sc::cluster::write_shard_archives(world, plan, dir + "/shards");
    sc::cluster::DeltaSplitter splitter(world, plan);
    for (const auto& bytes : inputs.deltas) {
      const auto delta = sc::feed::read_delta_bytes(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
      std::vector<std::string> per_shard;
      for (const auto& routed : splitter.split(delta)) {
        per_shard.push_back(bytes_string(sc::feed::write_delta_bytes(routed)));
      }
      inputs.shard_deltas.push_back(std::move(per_shard));
    }
  }
  return inputs;
}

Deployment::Node Deployment::start_node(const std::string& archive, int shard,
                                        unsigned shards, unsigned threads,
                                        bool serve,
                                        sc::obs::PipelineObserver* observer) {
  Node node;
  sc::query::ServiceOptions service_options;
  std::optional<sc::query::ShardScope> scope;
  if (shard >= 0) {
    const sc::cluster::ShardPlan plan(shards);
    service_options.shard_index = static_cast<unsigned>(shard);
    service_options.shard_count = shards;
    scope = plan.scope_for(static_cast<unsigned>(shard));
  }
  node.runtime =
      std::make_unique<sc::feed::FeedRuntime>(archive, observer, scope);
  node.service =
      std::make_unique<sc::query::StaledService>(archive, service_options);
  node.service->log().set_level(sc::obs::LogLevel::kError);
  node.service->log().enable_stderr(false);
  node.service->set_ingest_handler(node.runtime->handler());
  node.service->publish(node.runtime->index(), "perfbench base");
  if (serve) {
    sc::net::HttpServer::Options server_options;
    server_options.threads = threads;
    // Daily deltas of the small world reach ~70 KiB; the default request
    // bound (64 KiB) would refuse some of them as POST bodies.
    server_options.max_request_bytes = kMaxDeltaBody;
    auto* service = node.service.get();
    node.server = std::make_unique<sc::net::HttpServer>(
        server_options,
        [service](const sc::net::HttpRequest& r) { return service->handle(r); });
    node.server->set_request_hook(
        [service](const sc::net::HttpRequest&, const sc::net::HttpResponse& r,
                  std::chrono::nanoseconds write) {
          service->on_response_written(r, write);
        });
  }
  return node;
}

Deployment::Deployment(const Inputs& inputs, unsigned shards,
                       sc::obs::PipelineObserver* observer, SpanRecorder& spans,
                       std::size_t parent)
    : shards_(shards),
      archives_(shards > 0 ? inputs.shard_paths
                           : std::vector<std::string>{inputs.archive_path}) {
  const bool routed = shards > 0;
  for (std::size_t k = 0; k < archives_.size(); ++k) {
    const ScopedSpan span(spans, "snapshot.build", parent);
    if (auto* recorder = dynamic_cast<StageRecorder*>(observer)) {
      recorder->set_parent(span.id());
    }
    const Clock::time_point start = Clock::now();
    nodes_.push_back(serving_node(k, observer));
    build_seconds_.push_back(seconds_since(start));
  }

  const ScopedSpan span(spans, "server.start", parent);
  for (auto& node : nodes_) node.server->start();
  if (!routed) {
    node_ = nodes_.front().service.get();
    return;
  }
  reference_ = start_node(inputs.archive_path, -1, 0, 0, false, nullptr);
  node_ = reference_.service.get();
  sc::cluster::RouterOptions router_options;
  for (const auto& node : nodes_) {
    router_options.shards.push_back({"127.0.0.1", node.server->port()});
  }
  router_options.timeout = std::chrono::milliseconds(5000);
  router_options.health_interval = std::chrono::milliseconds(0);
  router_ = std::make_unique<sc::cluster::RouterService>(router_options);
  router_->log().set_level(sc::obs::LogLevel::kError);
  router_->log().enable_stderr(false);
  sc::net::HttpServer::Options server_options;
  server_options.threads = kReactorThreads;
  auto* router = router_.get();
  router_server_ = std::make_unique<sc::net::HttpServer>(
      server_options,
      [router](const sc::net::HttpRequest& r) { return router->handle(r); });
  router_server_->start();
}

Deployment::Node Deployment::serving_node(std::size_t k,
                                          sc::obs::PipelineObserver* observer) {
  const bool routed = shards_ > 0;
  return start_node(archives_[k], routed ? static_cast<int>(k) : -1, shards_,
                    routed ? kShardReactorThreads : kReactorThreads, true,
                    observer);
}

void Deployment::rebuild_cold() {
  for (std::size_t k = 0; k < archives_.size(); ++k) {
    const Clock::time_point start = Clock::now();
    const Node node = serving_node(k, nullptr);
    build_seconds_.push_back(seconds_since(start));
  }
}

Deployment::~Deployment() {
  if (router_server_) router_server_->stop();
  for (auto& node : nodes_) {
    if (node.server) node.server->stop();
  }
}

std::uint16_t Deployment::port() const {
  return router_server_ ? router_server_->port()
                        : nodes_.front().server->port();
}

std::vector<sc::query::StaledService*> Deployment::serving_nodes() {
  std::vector<sc::query::StaledService*> out;
  for (auto& node : nodes_) out.push_back(node.service.get());
  return out;
}

std::vector<std::uint16_t> Deployment::serving_ports() const {
  std::vector<std::uint16_t> out;
  for (const auto& node : nodes_) out.push_back(node.server->port());
  return out;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kStale: return "stale";
    case Kind::kKey: return "key";
    case Kind::kRevocation: return "revocation";
    case Kind::kSummary: return "summary";
  }
  return "unknown";
}

RequestPool make_pool(const sc::query::StalenessIndex& index,
                      std::uint64_t seed, std::size_t size,
                      unsigned extra_days) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  // The popularity ranking depends on the world only, so every seed draws
  // from the same distribution; the seed picks the draws.
  std::mt19937_64 ranking(0x5eed);
  const auto& corpus = index.corpus();
  std::set<std::string> domain_set;
  std::set<std::string> key_set;
  std::vector<std::string> serials;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& cert = corpus.at(i);
    for (const auto& name : cert.dns_names()) {
      domain_set.insert(sc::query::normalize_domain(name));
    }
    key_set.insert(cert.subject_key().fingerprint_hex());
    serials.push_back(sc::util::to_lower(cert.serial_hex()));
  }
  std::vector<std::string> revoked;
  for (const auto& record : index.stale_records()) {
    domain_set.insert(record.trigger_domain);
    if (record.cls == sc::core::StaleClass::kKeyCompromise) {
      revoked.push_back(
          sc::util::to_lower(corpus.at(record.cert_index).serial_hex()));
    }
  }
  // A quarter as many never-issued names as real ones: misses in the head
  // and the tail of the popularity ranking alike.
  std::vector<std::string> domains(domain_set.begin(), domain_set.end());
  const std::size_t misses = std::max<std::size_t>(1, domains.size() / 4);
  for (std::size_t i = 0; i < misses; ++i) {
    domains.push_back("miss-" + std::to_string(i) + ".never-issued.example");
  }
  std::shuffle(domains.begin(), domains.end(), ranking);
  // Zipf(1) popularity over the shuffled ranking.
  std::vector<double> cdf(domains.size());
  double total = 0.0;
  for (std::size_t r = 0; r < domains.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto zipf_domain = [&]() -> const std::string& {
    const double u = unit(rng) * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return domains[std::min<std::size_t>(it - cdf.begin(), domains.size() - 1)];
  };
  const std::vector<std::string> keys(key_set.begin(), key_set.end());
  const sc::util::Date first = index.meta().start;
  const std::int64_t span_days = (index.meta().end - first) + extra_days + 1;

  RequestPool pool;
  for (std::size_t i = 0; i < size; ++i) {
    const double pick = unit(rng);
    std::string target;
    Kind kind;
    if (pick < 0.55) {
      kind = Kind::kStale;
      const sc::util::Date date =
          first + static_cast<std::int64_t>(rng() % span_days);
      target = "/v1/stale?domain=" + zipf_domain() + "&date=" + date.to_string();
    } else if (pick < 0.70) {
      kind = Kind::kKey;
      target = "/v1/key/" + (unit(rng) < 0.9 ? keys[rng() % keys.size()]
                                             : std::string("00ff00ff"));
    } else if (pick < 0.85) {
      kind = Kind::kRevocation;
      const double which = unit(rng);
      const std::string serial =
          which < 0.5 && !revoked.empty() ? revoked[rng() % revoked.size()]
          : which < 0.9                   ? serials[rng() % serials.size()]
                                          : std::string("deadbeef");
      target = "/v1/revocation?serial=" + serial;
    } else {
      kind = Kind::kSummary;
      target = "/v1/summary?domain=" + zipf_domain();
    }
    pool.wire.push_back("GET " + target +
                        " HTTP/1.1\r\nHost: perfbench\r\n\r\n");
    pool.targets.push_back(std::move(target));
    pool.kinds.push_back(kind);
  }
  return pool;
}

namespace {

sc::net::HttpRequest parse_target(const std::string& target) {
  auto parsed = sc::net::parse_request("GET " + target + " HTTP/1.1\r\n\r\n");
  if (!parsed) throw std::runtime_error("unparseable target " + target);
  return *parsed;
}

/// Empty when `body` agrees with the index's answer for `target`.
std::string index_disagreement(const std::string& target, Kind kind,
                               const std::string& body,
                               const sc::query::StalenessIndex& index) {
  const sc::net::HttpRequest request = parse_target(target);
  switch (kind) {
    case Kind::kStale: {
      const auto records = index.stale_records_for(
          *request.param("domain"), sc::util::Date::parse(*request.param("date")));
      const bool stale = body.find("\"stale\":true") != std::string::npos;
      if (stale != !records.empty()) return "stale flag";
      if (count_of(body, "\"event_date\":") != records.size()) {
        return "match count";
      }
      return {};
    }
    case Kind::kKey: {
      const std::string spki = request.path.substr(std::string("/v1/key/").size());
      if (count_of(body, "{\"serial\":") != index.certs_for_key(spki).size()) {
        return "certificate count";
      }
      return {};
    }
    case Kind::kRevocation: {
      const auto status = index.revocation_status(*request.param("serial"));
      const bool revoked = body.find("\"revoked\":true") != std::string::npos;
      if (revoked != status.has_value()) return "revoked flag";
      if (status && body.find("\"reason\":\"" +
                              sc::revocation::to_string(status->reason) +
                              "\"") == std::string::npos) {
        return "reason";
      }
      return {};
    }
    case Kind::kSummary: {
      const auto summary = index.stale_summary(*request.param("domain"));
      if (json_uint(body, "certificates") !=
              static_cast<long long>(summary.certificates) ||
          json_uint(body, "stale_total") !=
              static_cast<long long>(summary.stale_total())) {
        return "summary counts";
      }
      return {};
    }
  }
  return "unknown kind";
}

}  // namespace

Tally check_against_index(std::uint16_t port, const RequestPool& pool,
                          const sc::query::StalenessIndex& index,
                          std::size_t count, std::vector<std::string>& problems) {
  Tally tally;
  sc::net::HttpClient client("127.0.0.1", port);
  for (std::size_t i = 0; i < std::min(count, pool.targets.size()); ++i) {
    const auto response = client.get(pool.targets[i]);
    std::string why = response.status == 200 ? std::string()
                                             : "status " +
                                                   std::to_string(response.status);
    if (why.empty()) {
      why = index_disagreement(pool.targets[i], pool.kinds[i], response.body,
                               index);
    }
    tally.add(why.empty());
    if (!why.empty()) problems.push_back(pool.targets[i] + ": " + why);
  }
  return tally;
}

Tally check_against_reference(std::uint16_t port, const RequestPool& pool,
                              sc::query::StaledService& reference,
                              std::size_t count,
                              std::vector<std::string>& problems) {
  Tally tally;
  sc::net::HttpClient client("127.0.0.1", port);
  for (std::size_t i = 0; i < std::min(count, pool.targets.size()); ++i) {
    const auto routed = client.get(pool.targets[i]);
    const auto single = reference.handle(parse_target(pool.targets[i]));
    const bool ok = routed.status == single.status && routed.body == single.body;
    tally.add(ok);
    if (!ok) problems.push_back(pool.targets[i] + ": differs from single node");
  }
  return tally;
}

IngestClients connect_ingest_clients(const Deployment& deployment) {
  IngestClients clients;
  for (const auto port : deployment.serving_ports()) {
    clients.push_back(std::make_unique<sc::net::HttpClient>("127.0.0.1", port));
  }
  return clients;
}

IngestRun ingest_deltas(Deployment& deployment, IngestClients& clients,
                        const Inputs& inputs, std::chrono::milliseconds cadence,
                        SpanRecorder& spans, std::size_t parent,
                        std::vector<std::string>& problems) {
  IngestRun run;
  const Clock::time_point start = Clock::now();
  for (std::size_t d = 0; d < inputs.deltas.size(); ++d) {
    std::this_thread::sleep_until(start + cadence * static_cast<long>(d));
    const ScopedSpan span(spans, "feed.ingest", parent);
    const Clock::time_point sent = Clock::now();
    bool all_ok = true;
    for (std::size_t k = 0; k < clients.size(); ++k) {
      const std::string& body = deployment.routed() ? inputs.shard_deltas[d][k]
                                                    : inputs.deltas[d];
      const auto response = clients[k]->post("/ingest", body,
                                             "application/octet-stream");
      const bool ok = response.status == 200 &&
                      json_uint(response.body, "generation") ==
                          static_cast<long long>(d + 1);
      run.tally.add(ok);
      ++run.posts;
      if (!ok) {
        all_ok = false;
        problems.push_back("delta " + std::to_string(d) + " node " +
                           std::to_string(k) + ": " +
                           std::to_string(response.status) + " " +
                           response.body);
      }
      run.new_certificates += static_cast<std::uint64_t>(
          std::max(0LL, json_uint(response.body, "new_certificates")));
      if (response.body.find("\"rebuilt\":true") != std::string::npos) {
        ++run.rebuilt;
      }
    }
    if (all_ok) {
      run.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - sent).count());
    }
    if (deployment.routed()) {
      sc::query::IngestSource source;
      source.bytes = inputs.deltas[d];
      source.origin = "perfbench";
      if (!deployment.node().ingest(source).ok) {
        problems.push_back("reference node refused delta " + std::to_string(d));
      }
    }
  }
  const sc::util::Date horizon =
      inputs.meta.end + static_cast<std::int64_t>(inputs.deltas.size());
  for (auto* node : deployment.serving_nodes()) {
    if (node->snapshot()->meta().end != horizon) {
      problems.push_back("horizon " + node->snapshot()->meta().end.to_string() +
                         " != " + horizon.to_string());
    }
  }
  return run;
}

double rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
