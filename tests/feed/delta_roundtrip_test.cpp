// The .scwd container: encode/decode identity, writer determinism, slicing
// equivalence of world extension, file naming, and the world-id lineage
// fingerprint. Structural equality is checked by re-encoding — the writer
// is canonical (same delta -> same bytes), so encode(decode(b)) == b is a
// full deep comparison without per-record operator==.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "stalecert/feed/delta.hpp"
#include "stalecert/feed/errors.hpp"
#include "stalecert/feed/extend.hpp"
#include "stalecert/feed/format.hpp"
#include "stalecert/sim/world.hpp"
#include "stalecert/store/archive.hpp"
#include "support/temp_path.hpp"

namespace stalecert::feed {
namespace {

using util::Date;

/// One deterministic small base world, archived once per process.
const store::ArchiveMeta& base_meta() {
  static const store::ArchiveMeta meta = [] {
    sim::World world(sim::small_test_config());
    world.run();
    const std::string path = testutil::unique_temp_path("feed_roundtrip_base.scw");
    store::save_world(world, path, nullptr, "small");
    return store::ArchiveReader(path).meta();
  }();
  return meta;
}

TEST(FeedDeltaTest, ConfigForProfileResolvesKnownRecipes) {
  const auto small = config_for_profile("small", 123);
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(small->seed, 123u);

  const auto dflt = config_for_profile("default", 9);
  ASSERT_TRUE(dflt.has_value());
  EXPECT_EQ(dflt->seed, 9u);

  EXPECT_FALSE(config_for_profile("custom", 1).has_value());
  EXPECT_FALSE(config_for_profile("banana", 1).has_value());
}

TEST(FeedDeltaTest, WorldIdIgnoresHorizonOnly) {
  store::ArchiveMeta meta = base_meta();
  const std::uint64_t id = world_id(meta);

  // Same world at a later horizon: same lineage.
  meta.end = meta.end + 30;
  EXPECT_EQ(world_id(meta), id);

  // Any recipe change: different lineage.
  store::ArchiveMeta reseeded = base_meta();
  reseeded.seed += 1;
  EXPECT_NE(world_id(reseeded), id);

  store::ArchiveMeta reprofiled = base_meta();
  reprofiled.profile = "default";
  EXPECT_NE(world_id(reprofiled), id);

  store::ArchiveMeta shifted = base_meta();
  shifted.start = shifted.start + 1;
  EXPECT_NE(world_id(shifted), id);

  store::ArchiveMeta repatterned = base_meta();
  repatterned.delegation_patterns.push_back("*.elsewhere.example");
  EXPECT_NE(world_id(repatterned), id);
}

TEST(FeedDeltaTest, RoundtripBytesIsIdentity) {
  const auto deltas = extend_world(base_meta(), 3, 3);
  ASSERT_EQ(deltas.size(), 1u);
  const WorldDelta& delta = deltas.front();
  EXPECT_EQ(delta.meta.base_world_id, world_id(base_meta()));
  EXPECT_EQ(delta.meta.from_day, base_meta().end + 1);
  EXPECT_EQ(delta.meta.to_day, base_meta().end + 3);
  EXPECT_EQ(delta.adns.size(), 3u);

  const std::vector<std::uint8_t> bytes = write_delta_bytes(delta);
  const WorldDelta decoded = read_delta_bytes(bytes);
  EXPECT_EQ(decoded.meta, delta.meta);
  EXPECT_EQ(decoded.ct_entry_count(), delta.ct_entry_count());
  EXPECT_EQ(decoded.revocations.size(), delta.revocations.size());
  EXPECT_EQ(decoded.registrations, delta.registrations);
  EXPECT_EQ(decoded.adns.size(), delta.adns.size());
  // Canonical writer: decoding and re-encoding reproduces the bytes, which
  // pins every record field without per-type equality operators.
  EXPECT_EQ(write_delta_bytes(decoded), bytes);
}

TEST(FeedDeltaTest, FileRoundtripMatchesBytes) {
  const auto deltas = extend_world(base_meta(), 1);
  ASSERT_EQ(deltas.size(), 1u);
  const std::string path = testutil::unique_temp_path("feed_roundtrip.scwd");
  const std::uint64_t written = write_delta(deltas.front(), path);

  std::ifstream in(path, std::ios::binary);
  const std::string on_disk((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk.size(), written);

  const WorldDelta decoded = read_delta(path);
  EXPECT_EQ(write_delta_bytes(decoded), write_delta_bytes(deltas.front()));
}

TEST(FeedDeltaTest, ExtensionIsDeterministic) {
  const auto first = extend_world(base_meta(), 2);
  const auto second = extend_world(base_meta(), 2);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(write_delta_bytes(first[i]), write_delta_bytes(second[i])) << i;
  }
}

TEST(FeedDeltaTest, SlicingIsEquivalent) {
  // Four one-day deltas and one four-day delta describe the same extended
  // world: same appended records in total, same cumulative ground truth.
  const auto daily = extend_world(base_meta(), 4, 1);
  const auto whole = extend_world(base_meta(), 4, 4);
  ASSERT_EQ(daily.size(), 4u);
  ASSERT_EQ(whole.size(), 1u);

  std::uint64_t ct = 0, revocations = 0, whois = 0, adns = 0;
  for (const auto& d : daily) {
    ct += d.ct_entry_count();
    revocations += d.revocations.size();
    whois += d.registrations.size();
    adns += d.adns.size();
  }
  EXPECT_EQ(ct, whole.front().ct_entry_count());
  EXPECT_EQ(revocations, whole.front().revocations.size());
  EXPECT_EQ(whois, whole.front().registrations.size());
  EXPECT_EQ(adns, whole.front().adns.size());

  // Day coverage tiles the window with no gaps.
  Date expected = base_meta().end + 1;
  for (const auto& d : daily) {
    EXPECT_EQ(d.meta.from_day, expected);
    EXPECT_EQ(d.meta.to_day, expected);
    expected = expected + 1;
  }

  // Stats are cumulative, so the last slice agrees with the whole window.
  const sim::World::Stats& a = daily.back().stats;
  const sim::World::Stats& b = whole.front().stats;
  EXPECT_EQ(a.domains_registered, b.domains_registered);
  EXPECT_EQ(a.domains_reregistered, b.domains_reregistered);
  EXPECT_EQ(a.certificates_issued, b.certificates_issued);
  EXPECT_EQ(a.cdn_departures, b.cdn_departures);
  EXPECT_EQ(a.key_compromises, b.key_compromises);
  EXPECT_EQ(a.other_revocations, b.other_revocations);
}

TEST(FeedDeltaTest, DeltaFileNameSortsInSequenceOrder) {
  DeltaMeta early;
  early.from_day = Date::parse("2023-01-09");
  early.to_day = Date::parse("2023-01-09");
  DeltaMeta late;
  late.from_day = Date::parse("2023-01-10");
  late.to_day = Date::parse("2023-01-11");
  EXPECT_EQ(delta_file_name(early), "delta-2023-01-09-2023-01-09.scwd");
  EXPECT_EQ(delta_file_name(late), "delta-2023-01-10-2023-01-11.scwd");
  EXPECT_LT(delta_file_name(early), delta_file_name(late));
}

TEST(FeedDeltaTest, ExtendRejectsUnreproducibleProfiles) {
  store::ArchiveMeta meta = base_meta();
  meta.profile = "custom";
  EXPECT_THROW(extend_world(meta, 1), FeedError);
}

}  // namespace
}  // namespace stalecert::feed
