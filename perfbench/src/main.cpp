// perfbench: the stalecert benchmark. One workload per run:
//
//   build   — repeated cold StalenessIndex::from_archive builds, each hot-
//             swapped into the serving node, then reads.
//   serve   — one StaledService behind net::HttpServer over loopback.
//   ingest  — serve plus 30 daily deltas POSTed to /ingest during the reads.
//   routed  — the world split four ways, four shard nodes, a RouterService.
//
// Every workload sets up its deployment several times (the median is
// setup_s), reads open-loop at its nominal rate, searches the highest rate
// that keeps p99 within 1 ms, and delivers 30 daily deltas (during the reads
// on ingest, afterwards elsewhere), then checks sampled answers. The last
// stdout line is the JSON result; --trace 1 swaps the end-to-end metrics for
// the per-layer ones and writes a Chrome trace-event file.
//
//   perfbench --workload build|serve|ingest|routed --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--commit SHA]
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "deploy.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "stats.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace sc = stalecert;

/// One delta every this long. On `ingest` the reads last only while the
/// deltas arrive, so every read window holds an apply; elsewhere the
/// spacing keeps ingest_p50_ms from resting on one fraction of a second.
constexpr std::chrono::milliseconds kIngestCadence{100};
/// Every workload serves the same simulated dataset (the `small` profile
/// at this world seed); --seed varies the traffic drawn from it.
constexpr std::uint64_t kWorldSeed = 20230512;
constexpr unsigned kDeltaDays = 30;
constexpr std::size_t kPoolSize = 4096;
constexpr std::size_t kCheckedResponses = 256;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string commit = "unknown";
};

struct WorkloadSpec {
  std::string name;
  unsigned shards = 0;        // 0 = single node
  double nominal_rate = 0.0;  // reads per second during the main phase
  double search_start = 0.0;  // first rate the read_max_qps search offers
  unsigned setups = 0;        // set-ups per run; setup_s is their median
  bool rebuild = false;       // published cold rebuilds after the reads
  bool ingest = false;        // deltas during the reads
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"build", 0, 10000.0, 50000.0, 5, true, false},
      {"serve", 0, 10000.0, 50000.0, 5, false, false},
      {"ingest", 0, 10000.0, 50000.0, 5, false, true},
      {"routed", 4, 2000.0, 12000.0, 3, false, false},
  };
  return specs;
}

int usage(const std::string& detail) {
  std::cerr << "usage: perfbench --workload build|serve|ingest|routed --seed N"
               " --seconds S --trace 0|1 [--work-dir DIR] [--commit SHA]\n";
  if (!detail.empty()) std::cerr << "perfbench: " << detail << '\n';
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv, std::string& error) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return std::nullopt;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      error = "unknown flag " + flag;
      return std::nullopt;
    }
  }
  if (args.seconds <= 0.0) {
    error = "--seconds must be positive";
    return std::nullopt;
  }
  return args;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string utc_now() {
  const std::time_t now = std::time(nullptr);
  char buffer[32];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  return buffer;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// With four or more CPUs, the servers (and everything else this process
/// starts from the main thread) run on all CPUs but the last, and the load
/// generator on the last, so the two never migrate onto each other.
///
/// The search offers rates that two generator threads sharing one CPU do
/// not send on time (they ran late from ~100k/s on, and read_max_qps
/// measured the generator), so there they get one CPU each: the last, and
/// the last server CPU, which on a single node holds only the idle
/// listener. The main phase keeps them to the last CPU: given two of the
/// servers' three CPUs for the whole run, read_p50_us and read_p99_us on
/// `ingest` spread 0.28-0.42 over seven runs.
struct CpuSplit {
  std::vector<int> server;
  std::vector<int> generator;
  std::vector<int> search;
};

CpuSplit split_cpus() {
  CpuSplit split;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return split;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 4) return split;
  const std::size_t servers = cpus.size() - 1;
  cpu_set_t server_set;
  CPU_ZERO(&server_set);
  for (std::size_t i = 0; i < servers; ++i) CPU_SET(cpus[i], &server_set);
  if (::sched_setaffinity(0, sizeof server_set, &server_set) != 0) return split;
  split.server.assign(cpus.begin(), cpus.begin() + static_cast<long>(servers));
  split.generator.assign(cpus.begin() + static_cast<long>(servers), cpus.end());
  split.search = {cpus[servers - 1], cpus[servers]};
  return split;
}

std::set<pid_t> thread_ids() {
  std::set<pid_t> ids;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(static_cast<pid_t>(std::stol(entry.path().filename().string())));
  }
  return ids;
}

/// Pins every thread started since `before` (the servers' listener and
/// reactor threads) to one server CPU each, round-robin. Left to the
/// scheduler, two reactors sometimes share a CPU for a whole run, which
/// doubled p99 in those runs.
void pin_new_threads(const std::set<pid_t>& before, const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  std::size_t next = 0;
  for (const pid_t id : thread_ids()) {
    if (before.count(id) != 0) continue;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[next++ % cpus.size()], &set);
    ::sched_setaffinity(id, sizeof set, &set);
  }
}

/// A build snapshot's identity: the stats every rebuild must reproduce.
bool same_stats(const sc::query::StalenessIndex::Stats& a,
                const sc::query::StalenessIndex::Stats& b) {
  return a.certificates == b.certificates && a.stale_records == b.stale_records &&
         a.by_class == b.by_class && a.distinct_keys == b.distinct_keys &&
         a.distinct_domains == b.distinct_domains &&
         a.revoked_serials == b.revoked_serials;
}

/// CT funnel identity: every raw entry is kept, a duplicate, or anomalous.
void check_funnel(const sc::query::StalenessIndex& index,
                  std::uint64_t ct_entries, std::vector<std::string>& problems) {
  const auto& collect = index.result().collect_stats;
  const std::uint64_t corpus = index.corpus().size();
  const std::uint64_t duplicates = collect.raw_entries - collect.after_dedup;
  if (collect.raw_entries != ct_entries ||
      collect.raw_entries !=
          corpus + duplicates + collect.dropped_certificates) {
    problems.push_back("ct funnel: raw " + std::to_string(collect.raw_entries) +
                       " != corpus " + std::to_string(corpus) +
                       " + duplicates " + std::to_string(duplicates) +
                       " + anomalous " +
                       std::to_string(collect.dropped_certificates));
  }
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const auto& candidate : workloads()) {
    if (candidate.name == args.workload) spec = &candidate;
  }
  if (spec == nullptr) return usage("unknown workload " + args.workload);

  const std::string work = args.work_dir + "/" + spec->name + "-" +
                           std::to_string(args.seed) + "-" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(work);
  const CpuSplit cpus = split_cpus();
  SpanRecorder spans(args.trace);
  StageRecorder stages(spans);
  sc::obs::PipelineObserver* observer = args.trace ? &stages : nullptr;
  std::vector<std::string> problems;
  Tally tally;
  MetricSet metrics;

  const double main_seconds = args.seconds * 0.4;
  const double rebuild_seconds = main_seconds * 0.6;  // build only
  const double search_seconds = args.seconds * 0.5;
  const double cold_build_seconds = args.seconds * 0.15;  // not on build
  OpenLoopOptions reads;
  reads.seed = args.seed;
  reads.cpus = cpus.generator;

  // --- set-up, several times; the last deployment is the one measured ---
  Inputs inputs;
  std::unique_ptr<Deployment> deployment;
  std::vector<double> setup_s;
  std::vector<double> build_s;
  for (unsigned k = 0; k < spec->setups; ++k) {
    deployment.reset();
    const Clock::time_point start = Clock::now();
    const ScopedSpan span(spans, "setup");
    inputs = make_inputs(kWorldSeed, work + "/setup-" + std::to_string(k),
                         kDeltaDays, spec->shards, spans, span.id());
    const std::set<pid_t> threads_before = thread_ids();
    deployment = std::make_unique<Deployment>(inputs, spec->shards, observer,
                                              spans, span.id());
    pin_new_threads(threads_before, cpus.server);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    build_s.insert(build_s.end(), deployment->build_seconds().begin(),
                   deployment->build_seconds().end());
  }
  const auto base_index = deployment->node().snapshot();
  check_funnel(*base_index, inputs.ct_entries, problems);
  const RequestPool pool = make_pool(*base_index, args.seed, kPoolSize, kDeltaDays);
  reads.port = deployment->port();
  reads.rate = spec->nominal_rate;

  // --- traced runs: tracing cost, reads-only, untraced then traced ---
  double trace_overhead_us = 0.0;
  if (args.trace) {
    OpenLoopOptions probe = reads;
    probe.seconds = 1.0;
    const double untraced = summarize(run_open_loop(pool.wire, probe).latency_us).p50;
    probe.spans = &spans;
    const double traced = summarize(run_open_loop(pool.wire, probe).latency_us).p50;
    trace_overhead_us = traced - untraced;
  }

  // --- builds with the machine to themselves, after the reads (the heap
  // churn of rebuilds made later reads stall on this host), half before and
  // half after the deltas. build_s is the fastest build of the run: the
  // host's speed drifts over seconds, by up to a third, and a median of
  // builds from one stretch of the run spread 0.2-0.33 over ten runs.
  // On build: cold rebuilds, each published into the serving node as a hot
  // reload would. Elsewhere: the serving nodes built again as set-up builds
  // them, and discarded, next to the set-ups' own builds. ---
  std::vector<double> rebuild_s;
  const auto rebuild_for = [&](double seconds) {
    const ScopedSpan phase(spans, "phase.rebuild");
    const auto expected = base_index->stats();
    const Clock::time_point end =
        Clock::now() + std::chrono::milliseconds(
                           static_cast<std::int64_t>(seconds * 1e3));
    while (Clock::now() < end || rebuild_s.empty()) {
      const ScopedSpan span(spans, "snapshot.rebuild", phase.id());
      stages.set_parent(span.id());
      const Clock::time_point start = Clock::now();
      auto index = sc::query::StalenessIndex::from_archive(inputs.archive_path,
                                                           observer);
      rebuild_s.push_back(
          std::chrono::duration<double>(Clock::now() - start).count());
      const bool same = same_stats(index->stats(), expected);
      tally.add(same);
      if (!same) problems.push_back("rebuilt snapshot stats differ");
      check_funnel(*index, inputs.ct_entries, problems);
      deployment->node().publish(std::move(index), "perfbench rebuild");
    }
  };
  const auto builds_for = [&](double seconds) {
    if (spec->rebuild) return rebuild_for(seconds);
    const ScopedSpan phase(spans, "phase.build");
    const std::size_t before = deployment->build_seconds().size();
    const Clock::time_point end =
        Clock::now() + std::chrono::milliseconds(
                           static_cast<std::int64_t>(seconds * 1e3));
    while (Clock::now() < end) deployment->rebuild_cold();
    build_s.insert(build_s.end(),
                   deployment->build_seconds().begin() + static_cast<long>(before),
                   deployment->build_seconds().end());
  };

  // --- main phase: open-loop reads beside the workload's writer ---
  reads.seconds = spec->rebuild ? main_seconds - rebuild_seconds
                 : spec->ingest
                     ? std::chrono::duration<double>(kIngestCadence).count() *
                           kDeltaDays
                     : main_seconds;
  const std::size_t main_span = spans.begin("phase.main");
  reads.spans = args.trace ? &spans : nullptr;
  reads.parent_span = main_span;
  OpenLoopResult main_reads;
  std::string reader_error;
  IngestRun ingest;
  IngestClients ingest_clients = connect_ingest_clients(*deployment);
  {
    std::jthread reader([&] {
      try {
        main_reads = run_open_loop(pool.wire, reads);
      } catch (const std::exception& e) {
        reader_error = e.what();
      }
    });
    if (spec->ingest) {
      ingest = ingest_deltas(*deployment, ingest_clients, inputs,
                             kIngestCadence, spans, main_span, problems);
    }
  }
  spans.end(main_span);
  if (!reader_error.empty()) throw std::runtime_error(reader_error);
  tally += main_reads.tally;
  const LatencySummary read = summarize(main_reads.latency_us);
  // With a delta applied in every window, every window holds the same kind
  // of stall, so the median window shows it. Over sets of five to seven
  // runs, the calmest tenth (3 of 30 windows) spread up to 0.24, the median
  // at most 0.12.
  const double read_p99_us = windowed_p99_us(main_reads, spec->ingest ? 0.5 : 0.1);
  if (read_p99_us <= 0.0) {
    problems.push_back("no read window held enough samples for a p99");
  }

  // --- highest rate within the latency limit ---
  reads.spans = nullptr;
  reads.cpus = cpus.search;
  // The starting rate is dithered by the seed, so the probe grid (and with
  // it the reported rate) is not the same in every run.
  const double start_rate =
      spec->search_start * (1.0 + static_cast<double>(args.seed % 1000) / 2000.0);
  const SearchResult max_rate =
      search_max_qps(pool.wire, reads, start_rate, search_seconds);
  tally += max_rate.tally;
  if (max_rate.max_qps <= 0.0) problems.push_back("no rate met the p99 limit");

  builds_for(spec->rebuild ? rebuild_seconds / 2 : cold_build_seconds / 2);

  // --- deltas, on an otherwise idle deployment when not already sent ---
  if (!spec->ingest) {
    const ScopedSpan span(spans, "phase.ingest");
    ingest = ingest_deltas(*deployment, ingest_clients, inputs, kIngestCadence,
                           spans, span.id(), problems);
  }
  tally += ingest.tally;
  if (ingest.latency_ms.size() != inputs.deltas.size()) {
    problems.push_back("not every delta was applied");
  }
  builds_for(spec->rebuild ? rebuild_seconds / 2 : cold_build_seconds / 2);

  // --- output checks on the final state ---
  {
    const ScopedSpan span(spans, "phase.check");
    tally += deployment->routed()
                 ? check_against_reference(deployment->port(), pool,
                                           deployment->node(),
                                           kCheckedResponses, problems)
                 : check_against_index(deployment->port(), pool,
                                       *deployment->node().snapshot(),
                                       kCheckedResponses, problems);
  }
  const double rss = rss_mb();

  // --- report ---
  std::map<std::string, std::string> meta = {
      {"workload", spec->name},
      {"seed", std::to_string(args.seed)},
      {"seconds", format_number(args.seconds)},
      {"trace", args.trace ? "1" : "0"},
      {"compiler", compiler()},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", cpu_model()},
      {"commit", args.commit},
      {"date", utc_now()},
      {"world_profile", inputs.meta.profile},
      {"world_seed", std::to_string(inputs.meta.seed)},
      {"world_ct_entries", std::to_string(inputs.ct_entries)},
      {"world_certificates", std::to_string(base_index->stats().certificates)},
      {"world_stale_records", std::to_string(base_index->stats().stale_records)},
      {"world_archive_bytes", std::to_string(inputs.archive_bytes)},
      {"world_deltas", std::to_string(inputs.deltas.size())},
      {"shards", std::to_string(spec->shards)},
      {"generator_cpus", std::to_string(cpus.generator.size())},
      {"read_rate", format_number(spec->nominal_rate)},
      {"read_samples", std::to_string(read.samples)},
      {"read_tail_percentile", format_number(read.tail_percentile)},
      {"read_tail_us", format_number(read.tail)},
      {"search_probes", std::to_string(max_rate.probes)},
      {"builds", std::to_string(spec->rebuild ? rebuild_s.size() : build_s.size())},
      {"failed_ratio", format_number(tally.failed_ratio())},
  };
  std::cout << "perfbench-meta " << json_object(meta) << '\n';
  for (const auto& problem : problems) std::cout << "CHECK FAILED: " << problem << '\n';

  const double ingest_p50_ms = median(ingest.latency_ms);
  if (!args.trace) {
    metrics.add("setup_s", median(setup_s), "s");
    const std::vector<double>& builds = spec->rebuild ? rebuild_s : build_s;
    metrics.add("build_s", *std::min_element(builds.begin(), builds.end()), "s");
    metrics.add("read_p50_us", read.p50, "us");
    metrics.add("read_p99_us", read_p99_us, "us");
    metrics.add("read_max_qps", max_rate.max_qps, "1/s");
    metrics.add("ingest_p50_ms", ingest_p50_ms, "ms");
    metrics.add("rss_mb", rss, "MB");
  } else {
    const std::vector<Span> all = spans.spans();
    std::vector<double> generate_s;
    for (const Span& span : all) {
      if (span.name == "sim.generate") generate_s.push_back(span.ms() / 1e3);
    }
    metrics.add("sim.generate_s", median(generate_s), "s");
    add_build_layers(all, spec->rebuild ? "snapshot.rebuild" : "snapshot.build",
                     stages, inputs, deployment->routed(), metrics);
    ServingContext context;
    context.read_p50_us = read.p50;
    context.lateness_p99_us = summarize(main_reads.lateness_us).p99;
    context.trace_overhead_us = trace_overhead_us;
    context.ingest_p50_ms = ingest_p50_ms;
    context.ingest = ingest;
    add_serving_layers(*deployment, pool, inputs, stages, context, metrics);

    const std::string trace_path = args.work_dir + "/trace-" + spec->name + "-" +
                                   std::to_string(args.seed) + ".json";
    std::ofstream(trace_path) << spans.chrome_json() << '\n';
    std::cout << "trace: " << trace_path << " (" << all.size() << " spans)\n"
              << "self time by span, ms:\n";
    for (const auto& [name, ms] : self_times_ms(all)) {
      std::cout << "  " << name << ' ' << format_number(ms) << '\n';
    }
  }
  for (const auto& [name, entry] : metrics.entries()) {
    std::cout << "  " << name << " = " << format_number(entry.first) << ' '
              << entry.second << '\n';
  }
  deployment.reset();
  std::filesystem::remove_all(work);

  const bool correct = problems.empty();
  std::cout << result_line(correct, tally, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string error;
  const auto args = perfbench::parse_args(argc, argv, error);
  if (!args) return perfbench::usage(error);
  try {
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
