// bench_feed: incremental ingest vs full reload. For 1/7/30-day extension
// windows it measures, over the same small-profile world:
//
//   apply   — feed::DeltaApplier::apply() of one .scwd covering the window
//             (decode excluded; the applier is rebuilt untimed per rep),
//             i.e. the time staled's POST /ingest spends off the serving
//             path before the snapshot swap.
//   reload  — StalenessIndex::from_archive() over the extended .scw, the
//             pre-feed alternative (what SIGHUP costs): load + full
//             pipeline + index build.
//
// and a single-thread closed-loop is_stale() throughput on both resulting
// snapshots, to show the patched index serves as fast as a from-scratch
// one. Medians over --reps runs. --json <path|-> writes the machine
// readable report; BENCH_feed.json in the repo root is a committed run,
// summarized in EXPERIMENTS.md.
//
//   $ ./bench_feed [--reps N] [--seed N] [--json <path|->]
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "stalecert/core/pipeline.hpp"
#include "stalecert/feed/applier.hpp"
#include "stalecert/feed/extend.hpp"
#include "stalecert/query/index.hpp"
#include "stalecert/sim/world.hpp"
#include "stalecert/store/archive.hpp"
#include "stalecert/store/errors.hpp"

using namespace stalecert;
using Clock = std::chrono::steady_clock;

namespace {

int usage(const std::string& detail) {
  std::cerr << "usage: bench_feed [--reps N] [--seed N] [--json <path|->]\n";
  if (!detail.empty()) std::cerr << detail << '\n';
  return 2;
}

struct Options {
  unsigned reps = 5;
  std::uint64_t seed = 20230512;
  std::string json_path;
};

const std::vector<std::int64_t> kWindows = {1, 7, 30};

std::string temp_path(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  std::string path = (tmp != nullptr ? std::string(tmp) : std::string("/tmp"));
  if (!path.empty() && path.back() != '/') path += '/';
  return path + name;
}

double median_ms(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// One applier over the loaded base world — rebuilt untimed for every
/// apply rep so each rep starts from the same pre-delta state.
feed::DeltaApplier make_applier(const std::string& base_path) {
  store::LoadedWorld world = store::load_world(base_path);
  core::PipelineConfig config;
  config.revocation_cutoff = world.meta.revocation_cutoff;
  config.delegation_patterns = world.meta.delegation_patterns;
  config.managed_san_pattern = world.meta.managed_san_pattern;
  core::PipelineResult result =
      core::run_pipeline(world.ct_logs, world.revocations,
                         world.re_registrations(), world.adns, config);
  auto index = std::make_shared<const query::StalenessIndex>(std::move(result),
                                                             world.meta);
  return feed::DeltaApplier(std::move(world), std::move(index));
}

/// Closed-loop single-thread is_stale() for ~0.2 s; returns queries/sec.
double query_qps(const query::StalenessIndex& index) {
  std::vector<std::string> domains;
  for (const auto& record : index.stale_records()) {
    domains.push_back(record.trigger_domain);
  }
  if (domains.empty()) domains.push_back("miss.invalid");
  std::vector<util::Date> dates;
  for (util::Date d = index.meta().start; d <= index.meta().end; d += 7) {
    dates.push_back(d);
  }
  std::uint64_t ops = 0;
  const auto begin = Clock::now();
  while (Clock::now() - begin < std::chrono::milliseconds(200)) {
    for (int burst = 0; burst < 256; ++burst, ++ops) {
      (void)index.is_stale(domains[ops % domains.size()],
                           dates[ops % dates.size()]);
    }
  }
  const std::chrono::duration<double> wall = Clock::now() - begin;
  return static_cast<double>(ops) / wall.count();
}

struct WindowResult {
  std::int64_t days = 0;
  std::uint64_t delta_bytes = 0;
  std::uint64_t new_certificates = 0;
  std::uint64_t new_stale_records = 0;
  bool rebuilt = false;
  double apply_ms = 0.0;
  double reload_ms = 0.0;
  double patched_qps = 0.0;
  double scratch_qps = 0.0;

  [[nodiscard]] double speedup() const {
    return apply_ms > 0.0 ? reload_ms / apply_ms : 0.0;
  }
};

int run(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reps" || arg == "--seed" || arg == "--json") {
      if (i + 1 >= argc) return usage(arg + " requires an argument");
      const std::string value = argv[++i];
      if (arg == "--reps") {
        options.reps = static_cast<unsigned>(std::atoi(value.c_str()));
      } else if (arg == "--seed") {
        options.seed = static_cast<std::uint64_t>(std::atoll(value.c_str()));
      } else {
        options.json_path = value;
      }
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (options.reps == 0) options.reps = 1;

  sim::WorldConfig config = sim::small_test_config();
  config.seed = options.seed;

  // Base world once; one extended archive per window (same world, longer
  // run) for the reload side.
  const std::string base_path = temp_path("stalecert_bench_feed_base.scw");
  {
    sim::World world(config);
    world.run();
    store::save_world(world, base_path, nullptr, "small");
  }
  const store::ArchiveMeta base_meta = store::ArchiveReader(base_path).meta();
  std::cout << "base: " << base_meta.start.to_string() << " .. "
            << base_meta.end.to_string() << ", seed " << options.seed << ", "
            << options.reps << " reps\n";

  std::vector<WindowResult> results;
  for (const std::int64_t days : kWindows) {
    WindowResult r;
    r.days = days;

    const auto deltas = feed::extend_world(base_meta, days, days);
    const feed::WorldDelta& delta = deltas.front();
    r.delta_bytes = feed::write_delta_bytes(delta).size();

    const std::string ext_path = temp_path(
        "stalecert_bench_feed_ext_" + std::to_string(days) + ".scw");
    {
      sim::World world(config);
      world.run();
      world.extend(days);
      store::save_world(world, ext_path, nullptr, "small");
    }

    std::shared_ptr<const query::StalenessIndex> patched;
    std::shared_ptr<const query::StalenessIndex> scratch;
    std::vector<double> apply_samples, reload_samples;
    for (unsigned rep = 0; rep < options.reps; ++rep) {
      feed::DeltaApplier applier = make_applier(base_path);  // untimed
      feed::WorldDelta input = delta;  // apply() consumes it; untimed
      auto begin = Clock::now();
      const auto applied = applier.apply(std::move(input));
      apply_samples.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - begin)
              .count());
      r.new_certificates = applied.new_certificates;
      r.new_stale_records = applied.new_stale_records;
      r.rebuilt = applied.rebuilt;
      patched = applied.index;

      begin = Clock::now();
      scratch = query::StalenessIndex::from_archive(ext_path);
      reload_samples.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - begin)
              .count());
    }
    r.apply_ms = median_ms(apply_samples);
    r.reload_ms = median_ms(reload_samples);
    r.patched_qps = query_qps(*patched);
    r.scratch_qps = query_qps(*scratch);
    results.push_back(r);

    std::cout << "  " << days << "-day delta (" << r.delta_bytes << " bytes, "
              << r.new_certificates << " new certs, " << r.new_stale_records
              << " new stale" << (r.rebuilt ? ", REBUILT" : "")
              << "): apply " << r.apply_ms << " ms vs reload " << r.reload_ms
              << " ms = " << r.speedup() << "x; is_stale "
              << static_cast<std::uint64_t>(r.patched_qps) << " qps patched vs "
              << static_cast<std::uint64_t>(r.scratch_qps) << " qps scratch\n";
  }

  if (!options.json_path.empty()) {
    std::ostringstream out;
    out << "{\n  \"bench\": \"bench_feed\",\n"
        << "  \"profile\": \"small\",\n"
        << "  \"seed\": " << options.seed << ",\n"
        << "  \"reps\": " << options.reps << ",\n"
        << "  \"windows\": {";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      out << (i > 0 ? "," : "") << "\n    \"" << r.days << "d\": {"
          << "\"delta_bytes\": " << r.delta_bytes
          << ", \"new_certificates\": " << r.new_certificates
          << ", \"new_stale_records\": " << r.new_stale_records
          << ", \"rebuilt\": " << (r.rebuilt ? "true" : "false")
          << ", \"apply_ms\": " << r.apply_ms
          << ", \"reload_ms\": " << r.reload_ms
          << ", \"speedup\": " << r.speedup()
          << ", \"patched_is_stale_qps\": "
          << static_cast<std::uint64_t>(r.patched_qps)
          << ", \"scratch_is_stale_qps\": "
          << static_cast<std::uint64_t>(r.scratch_qps) << "}";
    }
    out << "\n  }\n}\n";
    if (options.json_path == "-") {
      std::cout << out.str();
    } else {
      std::ofstream file(options.json_path);
      if (!file) {
        std::cerr << "cannot write " << options.json_path << '\n';
        return 1;
      }
      file << out.str();
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
    std::cerr << "bench_feed: cannot use archive: " << e.what() << '\n';
    return 1;
  } catch (const stalecert::Error& e) {
    std::cerr << "bench_feed: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_feed: unexpected error: " << e.what() << '\n';
    return 1;
  }
}
