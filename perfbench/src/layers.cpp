#include "layers.hpp"

#include <filesystem>
#include <map>

#include "stalecert/cluster/router.hpp"
#include "stalecert/feed/delta.hpp"
#include "stalecert/net/client.hpp"
#include "stalecert/net/http.hpp"

namespace perfbench {

namespace sc = stalecert;

namespace {

/// Keeps a computed value observable so batch loops are not folded away.
volatile std::size_t g_sink = 0;

/// Nanoseconds per call of f(i), i cycling over [0, n), timed over whole
/// batches of at least 20 ms so the clock read is not what gets measured.
template <typename F>
double batch_ns(std::size_t n, F&& f) {
  std::size_t calls = 0;
  std::size_t sink = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point now = start;
  while (now - start < std::chrono::milliseconds(20) || calls < n) {
    for (std::size_t i = 0; i < n; ++i) sink += f(i);
    calls += n;
    now = Clock::now();
  }
  g_sink = g_sink + sink;
  return std::chrono::duration<double, std::nano>(now - start).count() /
         static_cast<double>(calls);
}

const std::vector<std::string>& build_stages() {
  static const std::vector<std::string> stages = {
      "store_load",        "ct_collect",        "revocation_join",
      "registrant_change", "managed_departure", "query_index_build"};
  return stages;
}

}  // namespace

void add_build_layers(const std::vector<Span>& spans, const std::string& root,
                      const StageRecorder& stages, const Inputs& inputs,
                      bool routed, MetricSet& metrics) {
  // Root span of every span (its outermost `root`-named ancestor).
  std::vector<std::size_t> owner(spans.size(), kNoSpan);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == root) {
      owner[i] = i;
    } else if (spans[i].parent != kNoSpan && spans[i].parent < i) {
      owner[i] = owner[spans[i].parent];
    }
  }
  const std::vector<double> children = child_ms(spans);
  std::map<std::size_t, Ledger> ledgers;
  std::map<std::string, std::vector<double>> per_stage;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (owner[i] == kNoSpan) continue;
    Ledger& ledger = ledgers[owner[i]];
    if (owner[i] == i) {
      ledger.total_ms = spans[i].ms();
    } else if (spans[i].name == "pipeline") {
      // run_pipeline's own work between its stages: the corpus build.
      ledger.layers_ms.emplace_back("pipeline", spans[i].ms() - children[i]);
    } else if (std::find(build_stages().begin(), build_stages().end(),
                         spans[i].name) != build_stages().end()) {
      ledger.layers_ms.emplace_back(spans[i].name, spans[i].ms());
    }
  }
  std::vector<double> totals;
  std::vector<double> unattributed;
  for (const auto& [id, ledger] : ledgers) {
    totals.push_back(ledger.total_ms);
    unattributed.push_back(ledger.unattributed_ms());
    std::map<std::string, double> sums;
    for (const auto& [name, ms] : ledger.layers_ms) sums[name] += ms;
    for (const auto& stage : build_stages()) per_stage[stage].push_back(sums[stage]);
    per_stage["pipeline"].push_back(sums["pipeline"]);
  }

  double archive_mb = static_cast<double>(inputs.archive_bytes) / 1e6;
  if (routed && !inputs.shard_paths.empty()) {
    double bytes = 0.0;
    for (const auto& path : inputs.shard_paths) {
      bytes += static_cast<double>(std::filesystem::file_size(path));
    }
    archive_mb = bytes / 1e6 / static_cast<double>(inputs.shard_paths.size());
  }
  const double load_s = median(per_stage["store_load"]) / 1e3;
  metrics.add("store.load_s", load_s, "s");
  metrics.add("store.load_mb_per_s", load_s > 0 ? archive_mb / load_s : 0.0,
              "MB/s");

  double collect_ms = 0.0;
  for (const double ms : stages.durations_ms("ct_collect")) collect_ms += ms;
  const auto raw = static_cast<double>(stages.counter("ct_collect", "entries_raw"));
  const auto kept = static_cast<double>(stages.counter("ct_collect", "corpus"));
  metrics.add("ct.collect_us_per_entry", raw > 0 ? collect_ms * 1e3 / raw : 0.0,
              "us");
  metrics.add("ct.kept_ratio", raw > 0 ? kept / raw : 0.0, "ratio");
  metrics.add("core.revocation_join_ms", median(per_stage["revocation_join"]),
              "ms");
  metrics.add("core.registrant_change_ms",
              median(per_stage["registrant_change"]), "ms");
  metrics.add("core.managed_departure_ms",
              median(per_stage["managed_departure"]), "ms");
  metrics.add("core.pipeline_self_ms", median(per_stage["pipeline"]), "ms");
  metrics.add("query.index_build_ms", median(per_stage["query_index_build"]),
              "ms");
  metrics.add("build.snapshot_ms", median(totals), "ms");
  metrics.add("build.unattributed_ms", median(unattributed), "ms");
}

void add_serving_layers(Deployment& deployment, const RequestPool& pool,
                        const Inputs& inputs, const StageRecorder& stages,
                        const ServingContext& context, MetricSet& metrics) {
  const auto nodes = deployment.serving_nodes();
  const auto ports = deployment.serving_ports();
  const auto index = nodes.front()->snapshot();

  std::vector<sc::net::HttpRequest> requests;
  for (const auto& target : pool.targets) {
    requests.push_back(*sc::net::parse_request("GET " + target +
                                               " HTTP/1.1\r\n\r\n"));
  }

  // query: each point lookup, batch-timed over the pool's requests of
  // that kind, against the (first) serving node's snapshot.
  std::array<double, kKinds> lookup_ns{};
  std::array<double, kKinds> mix{};
  for (std::size_t k = 0; k < kKinds; ++k) {
    const Kind kind = static_cast<Kind>(k);
    std::vector<const sc::net::HttpRequest*> of_kind;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (pool.kinds[i] == kind) of_kind.push_back(&requests[i]);
    }
    mix[k] = static_cast<double>(of_kind.size()) /
             static_cast<double>(requests.size());
    std::vector<std::string> first;
    std::vector<sc::util::Date> dates;
    for (const auto* request : of_kind) {
      switch (kind) {
        case Kind::kStale:
          first.push_back(*request->param("domain"));
          dates.push_back(sc::util::Date::parse(*request->param("date")));
          break;
        case Kind::kKey:
          first.push_back(request->path.substr(std::string("/v1/key/").size()));
          break;
        case Kind::kRevocation:
          first.push_back(*request->param("serial"));
          break;
        case Kind::kSummary:
          first.push_back(*request->param("domain"));
          break;
      }
    }
    if (first.empty()) continue;
    lookup_ns[k] = batch_ns(first.size(), [&](std::size_t i) -> std::size_t {
      switch (kind) {
        case Kind::kStale: return index->stale_records_for(first[i], dates[i]).size();
        case Kind::kKey: return index->certs_for_key(first[i]).size();
        case Kind::kRevocation: return index->revocation_status(first[i]) ? 1 : 0;
        case Kind::kSummary: return index->stale_summary(first[i]).certificates;
      }
      return 0;
    });
    metrics.add(std::string("query.lookup_ns.") + kind_name(kind), lookup_ns[k],
                "ns");
  }
  double lookup_mean_us = 0.0;
  for (std::size_t k = 0; k < kKinds; ++k) lookup_mean_us += mix[k] * lookup_ns[k] / 1e3;

  // service: StaledService::handle per call, the request's node chosen
  // round-robin over the serving nodes.
  std::vector<double> handle_us;
  std::vector<sc::net::HttpResponse> responses;
  handle_us.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto* node = nodes[i % nodes.size()];
    const Clock::time_point start = Clock::now();
    responses.push_back(node->handle(requests[i]));
    handle_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start).count());
  }
  const LatencySummary handle = summarize(handle_us);
  metrics.add("service.handle_us.p50", handle.p50, "us");
  metrics.add("service.handle_us.p99", handle.p99, "us");
  metrics.add("service.overhead_us", handle.p50 - lookup_mean_us, "us");

  // net: request parse and response serialization, batch-timed.
  std::vector<std::string> heads(pool.wire.begin(), pool.wire.end());
  metrics.add("net.parse_request_ns",
              batch_ns(heads.size(),
                       [&](std::size_t i) -> std::size_t {
                         return sc::net::parse_request(heads[i])->query.size();
                       }),
              "ns");
  metrics.add("net.serialize_response_ns",
              batch_ns(responses.size(),
                       [&](std::size_t i) -> std::size_t {
                         return sc::net::serialize_response(responses[i], true)
                             .size();
                       }),
              "ns");

  // cluster: RouterService::handle per call, the router's fan-out
  // histogram for shard calls, and a direct loopback GET to a serving node
  // as the hop the router adds to.
  std::unique_ptr<sc::cluster::RouterService> one_shard_router;
  sc::cluster::RouterService* router = deployment.router();
  if (router == nullptr) {
    sc::cluster::RouterOptions options;
    options.shards = {{"127.0.0.1", ports.front()}};
    options.timeout = std::chrono::milliseconds(5000);
    options.health_interval = std::chrono::milliseconds(0);
    one_shard_router = std::make_unique<sc::cluster::RouterService>(options);
    one_shard_router->log().set_level(sc::obs::LogLevel::kError);
    one_shard_router->log().enable_stderr(false);
    router = one_shard_router.get();
  }
  auto& fanout = router->registry().histogram(
      "stalecert_router_fanout_shards", {1, 2, 3, 4, 6, 8, 12, 16}, {});
  const std::uint64_t fanout_count = fanout.count();
  const double fanout_sum = fanout.sum();
  const std::size_t routed_requests = std::min<std::size_t>(requests.size(), 1024);
  std::vector<double> router_us;
  std::vector<double> direct_us;
  std::vector<std::unique_ptr<sc::net::HttpClient>> clients;
  for (const auto port : ports) {
    clients.push_back(std::make_unique<sc::net::HttpClient>("127.0.0.1", port));
  }
  for (std::size_t i = 0; i < routed_requests; ++i) {
    Clock::time_point start = Clock::now();
    (void)router->handle(requests[i]);
    router_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start).count());
    start = Clock::now();
    (void)clients[i % clients.size()]->get(pool.targets[i]);
    direct_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start).count());
  }
  const double calls = static_cast<double>(fanout.count() - fanout_count);
  const double router_p50 = median(router_us);
  metrics.add("cluster.router_handle_us", router_p50, "us");
  metrics.add("cluster.shard_calls_per_request",
              calls > 0 ? (fanout.sum() - fanout_sum) / calls : 0.0, "count");
  metrics.add("cluster.router_overhead_us",
              router_p50 - median(direct_us), "us");

  // The reads' loopback transport: end-to-end minus what the front tier's
  // handler took.
  const double front_handle_us = deployment.routed() ? router_p50 : handle.p50;
  metrics.add("net.transport_us", context.read_p50_us - front_handle_us, "us");

  // feed: decode batch-timed over the deltas the nodes were sent, apply
  // and patch from the stage reports of the ingests.
  std::vector<double> decode_ms;
  for (std::size_t d = 0; d < inputs.deltas.size(); ++d) {
    const std::string& bytes =
        deployment.routed() ? inputs.shard_deltas[d].front() : inputs.deltas[d];
    const std::span<const std::uint8_t> view(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
    decode_ms.push_back(batch_ns(1, [&](std::size_t) -> std::size_t {
                          return sc::feed::read_delta_bytes(view).ct.size();
                        }) /
                        1e6);
  }
  const double decode = median(decode_ms);
  const double apply = median(stages.durations_ms("feed_apply"));
  const double posts_per_delta =
      inputs.deltas.empty() ? 0.0
                            : static_cast<double>(context.ingest.posts) /
                                  static_cast<double>(inputs.deltas.size());
  metrics.add("feed.decode_ms", decode, "ms");
  metrics.add("feed.apply_ms", apply, "ms");
  metrics.add("query.patch_ms", median(stages.durations_ms("query_index_patch")),
              "ms");
  metrics.add("feed.publish_ms",
              context.ingest_p50_ms - posts_per_delta * (decode + apply), "ms");
  metrics.add("feed.rebuild_ratio",
              context.ingest.posts > 0
                  ? static_cast<double>(context.ingest.rebuilt) /
                        static_cast<double>(context.ingest.posts)
                  : 0.0,
              "ratio");
  metrics.add("feed.new_certs_per_delta",
              inputs.deltas.empty()
                  ? 0.0
                  : static_cast<double>(context.ingest.new_certificates) /
                        static_cast<double>(inputs.deltas.size()),
              "count");

  metrics.add("gen.lateness_p99_us", context.lateness_p99_us, "us");
  metrics.add("trace.overhead_us", context.trace_overhead_us, "us");
}

}  // namespace perfbench
