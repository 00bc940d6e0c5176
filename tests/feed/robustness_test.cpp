// Hostile-input behavior of the feed path: damaged .scwd bytes must throw
// the store error taxonomy, semantically wrong deltas (foreign world,
// gapped/out-of-order days, double-apply, desynced logs) must throw the
// feed taxonomy BEFORE any state changes, and FeedRuntime must map every
// failure to a non-throwing IngestOutcome while the previous snapshot
// keeps serving.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stalecert/core/pipeline.hpp"
#include "stalecert/feed/applier.hpp"
#include "stalecert/feed/delta.hpp"
#include "stalecert/feed/errors.hpp"
#include "stalecert/feed/extend.hpp"
#include "stalecert/feed/runtime.hpp"
#include "stalecert/query/index.hpp"
#include "stalecert/sim/world.hpp"
#include "stalecert/store/archive.hpp"
#include "stalecert/store/errors.hpp"
#include "support/temp_path.hpp"

namespace stalecert::feed {
namespace {

struct BaseWorld {
  std::string path;
  store::ArchiveMeta meta;
  std::vector<WorldDelta> deltas;  // three one-day extensions
};

const BaseWorld& base_world() {
  static const BaseWorld base = [] {
    BaseWorld b;
    b.path = testutil::unique_temp_path("feed_robust_base.scw");
    sim::World world(sim::small_test_config());
    world.run();
    store::save_world(world, b.path, nullptr, "small");
    b.meta = store::ArchiveReader(b.path).meta();
    b.deltas = extend_world(b.meta, 3);
    return b;
  }();
  return base;
}

/// A fresh applier over the shared base archive (cheap relative to the
/// simulation: the archive is reloaded and the pipeline re-run per call).
DeltaApplier make_applier() {
  store::LoadedWorld world = store::load_world(base_world().path);
  core::PipelineConfig config;
  config.revocation_cutoff = world.meta.revocation_cutoff;
  config.delegation_patterns = world.meta.delegation_patterns;
  config.managed_san_pattern = world.meta.managed_san_pattern;
  core::PipelineResult result =
      core::run_pipeline(world.ct_logs, world.revocations,
                         world.re_registrations(), world.adns, config);
  auto index = std::make_shared<const query::StalenessIndex>(std::move(result),
                                                             world.meta);
  return DeltaApplier(std::move(world), std::move(index));
}

TEST(FeedRobustnessTest, TruncationAlwaysThrowsArchiveErrors) {
  const std::vector<std::uint8_t> bytes =
      write_delta_bytes(base_world().deltas.front());
  ASSERT_GT(bytes.size(), 64u);
  // Sweep prefixes, including cuts inside the magic, the version word, the
  // segment headers, and one byte short of complete.
  for (std::size_t n = 0; n < bytes.size();
       n = (n < 64 ? n + 1 : n + bytes.size() / 61)) {
    EXPECT_THROW(
        read_delta_bytes(std::span<const std::uint8_t>(bytes.data(), n)),
        store::ArchiveError)
        << "prefix " << n;
  }
  EXPECT_THROW(read_delta_bytes(std::span<const std::uint8_t>(
                   bytes.data(), bytes.size() - 1)),
               store::ArchiveError);
}

TEST(FeedRobustnessTest, BitFlipsAlwaysThrowArchiveErrors) {
  const std::vector<std::uint8_t> pristine =
      write_delta_bytes(base_world().deltas.front());
  // Every region is covered by magic/version checks or a segment CRC, so a
  // single flipped bit anywhere must be detected.
  for (std::size_t offset = 0; offset < pristine.size();
       offset += 1 + pristine.size() / 97) {
    std::vector<std::uint8_t> bytes = pristine;
    bytes[offset] ^= 0x40;
    EXPECT_THROW(read_delta_bytes(bytes), store::ArchiveError)
        << "offset " << offset;
  }
}

TEST(FeedRobustnessTest, WrongWorldIsAMismatch) {
  WorldDelta foreign = base_world().deltas.front();
  foreign.meta.base_world_id ^= 0xdeadbeef;
  DeltaApplier applier = make_applier();
  const auto snapshot = applier.index();
  EXPECT_THROW(applier.apply(foreign), DeltaMismatchError);
  EXPECT_EQ(applier.index().get(), snapshot.get());  // untouched
  EXPECT_EQ(applier.horizon(), base_world().meta.end);
  EXPECT_EQ(applier.deltas_applied(), 0u);
}

TEST(FeedRobustnessTest, GapAndOutOfOrderAreSequenceErrors) {
  DeltaApplier applier = make_applier();
  const auto snapshot = applier.index();

  // Day 3 before days 1-2: gap.
  EXPECT_THROW(applier.apply(base_world().deltas[2]), DeltaSequenceError);
  EXPECT_EQ(applier.index().get(), snapshot.get());

  // Recovery: the failed apply left no trace, the right delta still lands.
  EXPECT_NO_THROW(applier.apply(base_world().deltas[0]));
  EXPECT_EQ(applier.horizon(), base_world().meta.end + 1);

  // Out-of-order now that day 1 is in: day 1 again sorts before horizon.
  EXPECT_THROW(applier.apply(base_world().deltas[0]), DeltaSequenceError);
  EXPECT_THROW(applier.apply(base_world().deltas[2]), DeltaSequenceError);
  EXPECT_NO_THROW(applier.apply(base_world().deltas[1]));
  EXPECT_NO_THROW(applier.apply(base_world().deltas[2]));
  EXPECT_EQ(applier.deltas_applied(), 3u);
  EXPECT_EQ(applier.horizon(), base_world().meta.end + 3);
}

TEST(FeedRobustnessTest, DoubleApplyIsASequenceError) {
  DeltaApplier applier = make_applier();
  ASSERT_NO_THROW(applier.apply(base_world().deltas[0]));
  const auto snapshot = applier.index();
  EXPECT_THROW(applier.apply(base_world().deltas[0]), DeltaSequenceError);
  EXPECT_EQ(applier.index().get(), snapshot.get());
  EXPECT_EQ(applier.deltas_applied(), 1u);
}

TEST(FeedRobustnessTest, DesyncedLogLengthIsASequenceError) {
  // A delta whose per-log base_entry_count does not match the live log's
  // length claims entries at indices the log already assigned.
  WorldDelta desynced = base_world().deltas.front();
  ASSERT_FALSE(desynced.ct.empty());
  desynced.ct.front().base_entry_count += 1;
  DeltaApplier applier = make_applier();
  EXPECT_THROW(applier.apply(desynced), DeltaSequenceError);
}

TEST(FeedRobustnessTest, UnknownLogIsAMismatch) {
  WorldDelta foreign_log = base_world().deltas.front();
  ASSERT_FALSE(foreign_log.ct.empty());
  foreign_log.ct.front().log_id = 0xfeedfeedfeedfeed;
  DeltaApplier applier = make_applier();
  EXPECT_THROW(applier.apply(foreign_log), DeltaMismatchError);
}

TEST(FeedRobustnessTest, RuntimeMapsFailuresToStatusesWithoutThrowing) {
  FeedRuntime runtime(base_world().path);
  const auto served = runtime.index();

  // Unreadable bytes -> 400.
  query::IngestSource garbage;
  garbage.bytes = "these are not delta bytes";
  const auto bad = runtime.ingest(garbage);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.status, 400);
  EXPECT_FALSE(bad.message.empty());

  // Missing file -> 400 (store taxonomy, not an exception).
  query::IngestSource missing;
  missing.path = ::testing::TempDir() + "feed_does_not_exist.scwd";
  EXPECT_EQ(runtime.ingest(missing).status, 400);

  // Wrong world -> 409.
  WorldDelta foreign = base_world().deltas.front();
  foreign.meta.base_world_id ^= 1;
  const auto foreign_bytes = write_delta_bytes(foreign);
  query::IngestSource mismatch;
  mismatch.bytes.assign(foreign_bytes.begin(), foreign_bytes.end());
  EXPECT_EQ(runtime.ingest(mismatch).status, 409);

  // Gap -> 409.
  const auto gap_bytes = write_delta_bytes(base_world().deltas[1]);
  query::IngestSource gap;
  gap.bytes.assign(gap_bytes.begin(), gap_bytes.end());
  EXPECT_EQ(runtime.ingest(gap).status, 409);

  // Through all failures the served snapshot never moved.
  EXPECT_EQ(runtime.index().get(), served.get());
  EXPECT_EQ(runtime.deltas_applied(), 0u);

  // And a valid delta still applies afterwards -> 200.
  const auto good_bytes = write_delta_bytes(base_world().deltas[0]);
  query::IngestSource good;
  good.bytes.assign(good_bytes.begin(), good_bytes.end());
  const auto ok = runtime.ingest(good);
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.feed_generation, 1u);
  EXPECT_NE(runtime.index().get(), served.get());
}

TEST(FeedRobustnessTest, PendingDeltasSkipsForeignAppliedAndBrokenFiles) {
  const std::string dir = testutil::unique_temp_path("feed_pending_dir");
  std::filesystem::create_directories(dir);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::remove(entry.path());
  }

  // Three well-formed deltas, one foreign delta, one half-written file.
  std::vector<std::string> expected;
  for (const auto& delta : base_world().deltas) {
    const std::string path = dir + "/" + delta_file_name(delta.meta);
    write_delta(delta, path);
    expected.push_back(path);
  }
  WorldDelta foreign = base_world().deltas.front();
  foreign.meta.base_world_id ^= 1;
  write_delta(foreign, dir + "/aaa-foreign.scwd");
  {
    const auto bytes = write_delta_bytes(base_world().deltas.front());
    std::ofstream out(dir + "/half-written.scwd", std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size() / 2));
  }

  FeedRuntime runtime(base_world().path);
  EXPECT_EQ(runtime.pending_deltas(dir), expected);

  // apply_directory sweeps them in order; afterwards nothing is pending.
  EXPECT_EQ(runtime.apply_directory(dir, "test"), 3u);
  EXPECT_EQ(runtime.deltas_applied(), 3u);
  EXPECT_TRUE(runtime.pending_deltas(dir).empty());
}

TEST(FeedRobustnessTest, ReloadDiscardsAppliedDeltas) {
  FeedRuntime runtime(base_world().path);
  const auto bytes = write_delta_bytes(base_world().deltas[0]);
  query::IngestSource source;
  source.bytes.assign(bytes.begin(), bytes.end());
  ASSERT_TRUE(runtime.ingest(source).ok);
  ASSERT_EQ(runtime.horizon(), base_world().meta.end + 1);

  runtime.reload();
  EXPECT_EQ(runtime.horizon(), base_world().meta.end);
  EXPECT_EQ(runtime.deltas_applied(), 0u);
  // The same delta applies again on the rebuilt base.
  EXPECT_TRUE(runtime.ingest(source).ok);
}

}  // namespace
}  // namespace stalecert::feed
