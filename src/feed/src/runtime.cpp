#include "stalecert/feed/runtime.hpp"

#include <algorithm>
#include <filesystem>

#include "stalecert/core/pipeline.hpp"
#include "stalecert/feed/errors.hpp"
#include "stalecert/store/errors.hpp"
#include "stalecert/util/strings.hpp"

namespace stalecert::feed {

namespace {

DeltaApplier make_applier(const std::string& archive_path,
                          obs::PipelineObserver* observer,
                          const std::optional<query::ShardScope>& scope) {
  store::LoadedWorld world = store::load_world(archive_path, observer);
  if (scope) world = query::apply_shard_filter(std::move(world), *scope);
  // Same posture as StalenessIndex::from_archive — the archive's own
  // cutoff and provider patterns — but keeping the LoadedWorld, which the
  // applier needs for its join state.
  core::PipelineConfig config;
  config.revocation_cutoff = world.meta.revocation_cutoff;
  config.delegation_patterns = world.meta.delegation_patterns;
  config.managed_san_pattern = world.meta.managed_san_pattern;
  config.observer = observer;
  core::PipelineResult result =
      core::run_pipeline(world.ct_logs, world.revocations,
                         world.re_registrations(), world.adns, config);
  auto index = std::make_shared<query::StalenessIndex>(std::move(result),
                                                       world.meta, observer);
  if (scope) index->set_ownership(scope->owns);
  return DeltaApplier(std::move(world),
                      std::shared_ptr<const query::StalenessIndex>(index),
                      observer);
}

}  // namespace

FeedRuntime::FeedRuntime(const std::string& archive_path,
                         obs::PipelineObserver* observer,
                         std::optional<query::ShardScope> scope)
    : archive_path_(archive_path),
      scope_(std::move(scope)),
      observer_(observer),
      applier_(make_applier(archive_path, observer, scope_)) {}

void FeedRuntime::reload() {
  // Build the replacement fully off-lock, then swap: a concurrent ingest
  // either lands on the old state (and is discarded with it) or on the
  // fresh one.
  DeltaApplier fresh = make_applier(archive_path_, observer_, scope_);
  const util::MutexLock lock(mutex_);
  applier_ = std::move(fresh);
}

query::IngestOutcome FeedRuntime::ingest(const query::IngestSource& source) {
  query::IngestOutcome outcome;
  try {
    WorldDelta delta =
        source.path.empty()
            ? read_delta_bytes(std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(source.bytes.data()),
                  source.bytes.size()))
            : read_delta(source.path, observer_);
    const util::MutexLock lock(mutex_);
    const DeltaApplier::ApplyResult applied = applier_.apply(std::move(delta));
    outcome.ok = true;
    outcome.status = 200;
    outcome.index = applied.index;
    outcome.new_certificates = applied.new_certificates;
    outcome.new_stale_records = applied.new_stale_records;
    outcome.rebuilt = applied.rebuilt;
    outcome.feed_generation = applier_.deltas_applied();
    outcome.horizon = applier_.horizon().to_string();
  } catch (const DeltaMismatchError& e) {
    outcome.status = 409;
    outcome.message = e.what();
  } catch (const DeltaSequenceError& e) {
    outcome.status = 409;
    outcome.message = e.what();
  } catch (const store::ArchiveError& e) {
    outcome.status = 400;  // unreadable container: truncated/corrupt/version
    outcome.message = e.what();
  } catch (const std::exception& e) {
    outcome.status = 500;
    outcome.message = e.what();
  }
  return outcome;
}

std::vector<std::string> FeedRuntime::pending_deltas(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() != ".scwd") continue;
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());

  const util::Date horizon = this->horizon();
  const std::uint64_t world = [this] {
    const util::MutexLock lock(mutex_);
    return applier_.base_world_id();
  }();
  std::vector<std::string> pending;
  for (const auto& path : paths) {
    try {
      const WorldDelta delta = read_delta(path, nullptr);
      if (delta.meta.base_world_id != world) continue;
      if (delta.meta.to_day <= horizon) continue;  // already applied
      pending.push_back(path);
    } catch (const std::exception&) {
      // Unreadable this round (possibly still being written): stays
      // pending until it parses.
    }
  }
  return pending;
}

std::size_t FeedRuntime::apply_directory(const std::string& dir,
                                         const std::string& origin) {
  std::size_t applied = 0;
  for (const auto& path : pending_deltas(dir)) {
    query::IngestSource source;
    source.path = path;
    source.origin = origin;
    if (!ingest(source).ok) break;
    ++applied;
  }
  return applied;
}

}  // namespace stalecert::feed
