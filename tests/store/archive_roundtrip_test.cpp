// Round-trip fidelity: a world archived to .scw and loaded back must be
// indistinguishable from the original across every Table-3 dataset — same
// CT logs and entries, same revocation observations, same WHOIS event
// stream, same aDNS snapshots, same ground-truth stats — and the pipeline
// must produce identical detections from both.
#include <gtest/gtest.h>

#include <string>

#include "stalecert/core/pipeline.hpp"
#include "stalecert/obs/observer.hpp"
#include "stalecert/sim/world.hpp"
#include "stalecert/store/archive.hpp"
#include "support/temp_path.hpp"

namespace stalecert::store {
namespace {

const sim::World& test_world() {
  static sim::World* world = [] {
    auto* w = new sim::World(sim::small_test_config());
    w->run();
    return w;
  }();
  return *world;
}

std::string temp_path(const std::string& name) {
  return testutil::unique_temp_path(name);
}

core::PipelineConfig pipeline_config_for(
    const std::vector<std::string>& delegation_patterns,
    const std::string& san_pattern, std::optional<util::Date> cutoff) {
  core::PipelineConfig config;
  config.revocation_cutoff = cutoff;
  config.delegation_patterns = delegation_patterns;
  config.managed_san_pattern = san_pattern;
  return config;
}

TEST(ArchiveRoundTripTest, MetaCarriesTheWorldRecipe) {
  const sim::World& world = test_world();
  const std::string path = temp_path("meta.scw");
  save_world(world, path, nullptr, "small");

  const ArchiveReader reader(path);
  const ArchiveMeta& meta = reader.meta();
  EXPECT_EQ(meta.profile, "small");
  EXPECT_EQ(meta.seed, world.config().seed);
  EXPECT_EQ(meta.start, world.config().start);
  EXPECT_EQ(meta.end, world.config().end);
  ASSERT_TRUE(meta.revocation_cutoff.has_value());
  EXPECT_EQ(*meta.revocation_cutoff, world.config().revocation_cutoff);
  EXPECT_EQ(meta.delegation_patterns, world.cloudflare_delegation_patterns());
  EXPECT_EQ(meta.managed_san_pattern, world.cloudflare_san_pattern());
}

TEST(ArchiveRoundTripTest, CtLogsAreBitIdentical) {
  const sim::World& world = test_world();
  const std::string path = temp_path("ct.scw");
  save_world(world, path);
  const LoadedWorld loaded = load_world(path);

  const auto& original = world.ct_logs().logs();
  const auto& restored = loaded.ct_logs.logs();
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    SCOPED_TRACE("log " + std::to_string(i));
    EXPECT_EQ(restored[i].id(), original[i].id());
    EXPECT_EQ(restored[i].name(), original[i].name());
    EXPECT_EQ(restored[i].log_operator(), original[i].log_operator());
    EXPECT_EQ(restored[i].trust().chrome, original[i].trust().chrome);
    EXPECT_EQ(restored[i].trust().apple, original[i].trust().apple);
    EXPECT_EQ(restored[i].expiry_shard(), original[i].expiry_shard());
    const auto& entries = original[i].entries();
    const auto& loaded_entries = restored[i].entries();
    ASSERT_EQ(loaded_entries.size(), entries.size());
    for (std::size_t j = 0; j < entries.size(); ++j) {
      ASSERT_EQ(loaded_entries[j].index, entries[j].index);
      ASSERT_EQ(loaded_entries[j].timestamp, entries[j].timestamp);
      ASSERT_EQ(loaded_entries[j].certificate, entries[j].certificate)
          << "entry " << j << " of log " << i;
    }
    // The Merkle tree is rebuilt from the same leaves in the same order.
    EXPECT_EQ(restored[i].size(), original[i].size());
    if (original[i].size() > 0) {
      EXPECT_EQ(restored[i].leaf_hash_at(0), original[i].leaf_hash_at(0));
      EXPECT_EQ(restored[i].sth(world.config().end).root_hash,
                original[i].sth(world.config().end).root_hash);
    }
  }
}

TEST(ArchiveRoundTripTest, RevocationsWhoisDnsAndStatsSurvive) {
  const sim::World& world = test_world();
  const std::string path = temp_path("datasets.scw");
  save_world(world, path);
  const LoadedWorld loaded = load_world(path);

  // Revocation store: identical (key, observation) multiset.
  const auto original_entries = world.crl_collection().store().entries();
  const auto loaded_entries = loaded.revocations.entries();
  ASSERT_EQ(loaded_entries.size(), original_entries.size());
  for (std::size_t i = 0; i < original_entries.size(); ++i) {
    EXPECT_EQ(loaded_entries[i].authority_key_id,
              original_entries[i].authority_key_id);
    EXPECT_EQ(loaded_entries[i].serial, original_entries[i].serial);
    EXPECT_EQ(loaded_entries[i].observation.revocation_date,
              original_entries[i].observation.revocation_date);
    EXPECT_EQ(loaded_entries[i].observation.reason,
              original_entries[i].observation.reason);
  }

  // WHOIS: the full event stream and the conservative subset both match.
  EXPECT_EQ(loaded.registrations, world.whois().new_registrations());
  EXPECT_EQ(loaded.re_registrations(), world.whois().re_registrations());

  // aDNS: every daily snapshot reconstructs exactly from the stored diffs.
  const auto& original_days = world.adns().all();
  const auto& loaded_days = loaded.adns.all();
  ASSERT_EQ(loaded_days.size(), original_days.size());
  for (std::size_t i = 0; i < original_days.size(); ++i) {
    ASSERT_EQ(loaded_days[i].date, original_days[i].date);
    ASSERT_EQ(loaded_days[i].records, original_days[i].records)
        << "snapshot " << i;
  }

  // Ground-truth stats.
  const auto& s = world.stats();
  EXPECT_EQ(loaded.stats.domains_registered, s.domains_registered);
  EXPECT_EQ(loaded.stats.domains_reregistered, s.domains_reregistered);
  EXPECT_EQ(loaded.stats.domains_transferred, s.domains_transferred);
  EXPECT_EQ(loaded.stats.certificates_issued, s.certificates_issued);
  EXPECT_EQ(loaded.stats.cdn_enrollments, s.cdn_enrollments);
  EXPECT_EQ(loaded.stats.cdn_departures, s.cdn_departures);
  EXPECT_EQ(loaded.stats.key_compromises, s.key_compromises);
  EXPECT_EQ(loaded.stats.other_revocations, s.other_revocations);
  EXPECT_EQ(loaded.stats.refund_abuses, s.refund_abuses);
}

TEST(ArchiveRoundTripTest, PipelineDetectionsAreIdentical) {
  const sim::World& world = test_world();
  const std::string path = temp_path("pipeline.scw");
  save_world(world, path);
  const LoadedWorld loaded = load_world(path);

  const auto config = pipeline_config_for(world.cloudflare_delegation_patterns(),
                                          world.cloudflare_san_pattern(),
                                          world.config().revocation_cutoff);
  const auto in_memory = core::run_pipeline(
      world.ct_logs(), world.crl_collection().store(),
      world.whois().re_registrations(), world.adns(), config);
  const auto from_archive = core::run_pipeline(
      loaded.ct_logs, loaded.revocations, loaded.re_registrations(),
      loaded.adns, config);

  ASSERT_EQ(from_archive.corpus.size(), in_memory.corpus.size());
  EXPECT_EQ(from_archive.collect_stats.raw_entries,
            in_memory.collect_stats.raw_entries);
  for (const auto cls : core::kAllStaleClasses) {
    const auto& a = in_memory.of(cls);
    const auto& b = from_archive.of(cls);
    ASSERT_EQ(b.size(), a.size()) << to_string(cls);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(b[i].corpus_index, a[i].corpus_index);
      EXPECT_EQ(b[i].event_date, a[i].event_date);
      EXPECT_EQ(b[i].trigger_domain, a[i].trigger_domain);
      EXPECT_EQ(b[i].staleness_days(), a[i].staleness_days());
    }
  }
}

TEST(ArchiveRoundTripTest, StreamingCursorsSeeEveryRecord) {
  const sim::World& world = test_world();
  const std::string path = temp_path("streams.scw");
  save_world(world, path);
  const ArchiveReader reader(path);

  auto ct = reader.ct_entries();
  std::uint64_t streamed_entries = 0;
  std::uint64_t streamed_logs = 0;
  while (const auto header = ct.next_log()) {
    ++streamed_logs;
    std::uint64_t in_log = 0;
    while (ct.next_entry()) ++in_log;
    EXPECT_EQ(in_log, header->entry_count);
    streamed_entries += in_log;
  }
  EXPECT_EQ(streamed_logs, world.ct_logs().log_count());
  EXPECT_EQ(streamed_entries, world.ct_logs().total_entries());

  auto revocations = reader.revocations();
  std::uint64_t streamed_revocations = 0;
  while (revocations.next()) ++streamed_revocations;
  EXPECT_EQ(streamed_revocations, world.crl_collection().store().size());

  auto registrations = reader.registrations();
  std::uint64_t streamed_registrations = 0;
  while (registrations.next()) ++streamed_registrations;
  EXPECT_EQ(streamed_registrations, world.whois().new_registrations().size());

  auto snapshots = reader.snapshots();
  std::size_t day = 0;
  while (const auto snapshot = snapshots.next()) {
    ASSERT_LT(day, world.adns().days());
    EXPECT_EQ(snapshot->date, world.adns().day(day).date);
    EXPECT_EQ(snapshot->records, world.adns().day(day).records);
    ++day;
  }
  EXPECT_EQ(day, world.adns().days());
}

TEST(ArchiveRoundTripTest, EmptyDatasetsRoundTrip) {
  const std::string path = temp_path("empty.scw");
  ArchiveMeta meta;
  meta.profile = "custom";
  meta.seed = 1;
  meta.start = util::Date::from_ymd(2021, 1, 1);
  meta.end = util::Date::from_ymd(2021, 1, 2);
  ArchiveWriter(meta).write(path);

  const LoadedWorld loaded = load_world(path);
  EXPECT_EQ(loaded.ct_logs.log_count(), 0u);
  EXPECT_EQ(loaded.revocations.size(), 0u);
  EXPECT_TRUE(loaded.registrations.empty());
  EXPECT_EQ(loaded.adns.days(), 0u);
  EXPECT_EQ(loaded.stats.certificates_issued, 0u);
  EXPECT_EQ(loaded.meta.profile, "custom");
}

TEST(ArchiveRoundTripTest, SaveAndLoadReportObsMetrics) {
  const sim::World& world = test_world();
  const std::string path = temp_path("metrics.scw");

  obs::MetricsPipelineObserver save_telemetry;
  const std::uint64_t bytes = save_world(world, path, &save_telemetry);
  obs::MetricsPipelineObserver load_telemetry;
  (void)load_world(path, &load_telemetry);

  auto counter = [](const obs::MetricsPipelineObserver& telemetry,
                    const std::string& name) -> std::uint64_t {
    for (const auto& c : telemetry.registry().snapshot().counters) {
      if (c.name == name) return c.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(counter(save_telemetry, "stalecert_store_save_bytes_written_total"),
            bytes);
  EXPECT_EQ(counter(save_telemetry, "stalecert_store_save_ct_entries_total"),
            world.ct_logs().total_entries());
  EXPECT_EQ(counter(load_telemetry, "stalecert_store_load_bytes_read_total"),
            bytes);
  EXPECT_EQ(counter(load_telemetry, "stalecert_store_load_revocations_total"),
            world.crl_collection().store().size());
  // Both stages timed themselves.
  bool save_span = false, load_span = false;
  for (const auto& span : save_telemetry.trace().spans()) {
    save_span |= span.name == "store_save";
  }
  for (const auto& span : load_telemetry.trace().spans()) {
    load_span |= span.name == "store_load";
  }
  EXPECT_TRUE(save_span);
  EXPECT_TRUE(load_span);
}

}  // namespace
}  // namespace stalecert::store
