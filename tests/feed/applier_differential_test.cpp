// Differential correctness of incremental ingest: a StalenessIndex grown
// by applying .scwd deltas must answer every query exactly like an index
// built from scratch over the same extended world. Corpus order is NOT
// comparable across the two builds (the patched corpus appends delta
// certificates after all base entries; a from-scratch collect interleaves
// them per log), so answers are compared semantically — indices are mapped
// to full certificate/record identities before comparison.
//
// Two parameterizations:
//  - "golden": the committed tests/feed/data/*.scwd fixtures applied onto
//    the deterministic profile-small world — also pins the byte format
//    (these files must keep parsing and applying under format evolution).
//  - "fresh": a different seed extended live via extend_world, so the
//    comparison does not fossilize one lucky world.
// FeedMergeDifferentialTest runs the same comparisons over a schedule
// whose patched snapshot merges storage levels, including into the base
// level, and keeps taking patches afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "stalecert/core/pipeline.hpp"
#include "stalecert/dns/name.hpp"
#include "stalecert/feed/extend.hpp"
#include "stalecert/feed/runtime.hpp"
#include "stalecert/query/index.hpp"
#include "stalecert/sim/world.hpp"
#include "stalecert/store/archive.hpp"
#include "stalecert/util/strings.hpp"
#include "support/temp_path.hpp"

#ifndef STALECERT_FEED_TEST_DATA_DIR
#error "STALECERT_FEED_TEST_DATA_DIR must be defined by the build"
#endif

namespace stalecert::feed {
namespace {

using query::StalenessIndex;
using util::Date;
using util::DateInterval;

/// One extend_world call: `days` days in slices of `slice_days`.
struct Slices {
  std::int64_t days = 0;
  std::int64_t slice_days = 1;
};

/// Order-independent identity of one corpus certificate: serial, key,
/// validity, and the full (sorted) name set.
std::string cert_identity(const core::CertificateCorpus& corpus,
                          std::uint32_t index) {
  const auto& cert = corpus.at(index);
  std::vector<std::string> names = cert.dns_names();
  std::sort(names.begin(), names.end());
  std::string id = cert.serial_hex() + "|" +
                   cert.subject_key().fingerprint_hex() + "|" +
                   cert.not_before().to_string() + "|" +
                   cert.not_after().to_string();
  for (const auto& name : names) id += "|" + name;
  return id;
}

/// Order-independent identity of one stale record.
std::string record_identity(const StalenessIndex& index, std::uint32_t r) {
  const query::StaleRecord& record = index.stale_records()[r];
  return std::string(core::to_string(record.cls)) + "|" +
         cert_identity(index.corpus(), record.cert_index) + "|" +
         record.trigger_domain + "|" + record.event_date.to_string() + "|" +
         record.staleness.begin().to_string() + "|" +
         record.staleness.end().to_string() + "|" +
         (record.reason ? std::to_string(static_cast<int>(*record.reason))
                        : "-");
}

std::multiset<std::string> cert_identities(const StalenessIndex& index,
                                           const std::vector<std::uint32_t>& v) {
  std::multiset<std::string> out;
  for (const auto i : v) out.insert(cert_identity(index.corpus(), i));
  return out;
}

std::multiset<std::string> record_identities(
    const StalenessIndex& index, const std::vector<std::uint32_t>& v) {
  std::multiset<std::string> out;
  for (const auto r : v) out.insert(record_identity(index, r));
  return out;
}

struct Fixture {
  std::shared_ptr<const StalenessIndex> patched;  // base + deltas
  std::shared_ptr<const StalenessIndex> scratch;  // full pipeline, same world
  std::uint64_t deltas_applied = 0;
  std::uint64_t new_certificates = 0;
  std::uint64_t new_stale_records = 0;
  std::uint64_t rebuilds = 0;
  /// Some delta made the patched snapshot merge levels / merge every level
  /// into the base one.
  bool merged = false;
  bool merged_into_base = false;

  std::vector<std::string> domains;
  std::vector<Date> dates;
};

std::shared_ptr<const StalenessIndex> build_scratch(
    const sim::WorldConfig& config, std::int64_t extra_days,
    const std::string& tag) {
  sim::World world(config);
  world.run();
  world.extend(extra_days);
  const std::string path = testutil::unique_temp_path(tag + "_scratch.scw");
  store::save_world(world, path, nullptr, "small");
  return StalenessIndex::from_archive(path);
}

Fixture build_fixture(std::uint64_t seed,
                      const std::vector<Slices>& schedule,
                      const std::vector<std::string>& delta_paths,
                      const std::string& tag) {
  std::int64_t extra_days = 0;
  for (const auto& run : schedule) extra_days += run.days;
  sim::WorldConfig config = sim::small_test_config();
  config.seed = seed;

  // Delta side: archive the base world, feed the deltas through the real
  // serving runtime (decode + validate + apply + with_patch).
  Fixture f;
  const std::string base_path = testutil::unique_temp_path(tag + "_base.scw");
  {
    sim::World world(config);
    world.run();
    store::save_world(world, base_path, nullptr, "small");
  }

  std::vector<std::string> paths = delta_paths;
  if (paths.empty()) {
    store::ArchiveMeta meta = store::ArchiveReader(base_path).meta();
    for (const auto& run : schedule) {
      for (const auto& delta : extend_world(meta, run.days, run.slice_days)) {
        const std::string path =
            testutil::unique_temp_path(tag + "_" + delta_file_name(delta.meta));
        write_delta(delta, path);
        paths.push_back(path);
      }
      meta.end = meta.end + run.days;
    }
  }

  FeedRuntime runtime(base_path);
  for (const auto& path : paths) {
    const std::size_t levels_before = runtime.index()->level_count();
    query::IngestSource source;
    source.path = path;
    const query::IngestOutcome outcome = runtime.ingest(source);
    EXPECT_TRUE(outcome.ok) << path << ": " << outcome.message;
    f.new_certificates += outcome.new_certificates;
    f.new_stale_records += outcome.new_stale_records;
    f.rebuilds += outcome.rebuilt ? 1 : 0;
    const auto& index = *runtime.index();
    f.merged = f.merged || index.level_count() <= levels_before;
    f.merged_into_base = f.merged_into_base ||
                         (!outcome.rebuilt && index.level_count() == 1 &&
                          index.corpus().level_count() == 1);
  }
  f.patched = runtime.index();
  f.deltas_applied = runtime.deltas_applied();

  f.scratch = build_scratch(config, extra_days, tag);

  // Probe sets from the scratch side (the ground truth): every FQDN and
  // e2LD named anywhere, every trigger domain, plus a guaranteed miss.
  std::set<std::string> domains;
  for (const auto& cert : f.scratch->corpus().certificates()) {
    for (const auto& raw : cert.dns_names()) {
      const std::string name = query::normalize_domain(raw);
      domains.insert(name);
      if (const auto e2 = dns::e2ld(name)) domains.insert(*e2);
    }
  }
  for (const auto& record : f.scratch->stale_records()) {
    domains.insert(query::normalize_domain(record.trigger_domain));
  }
  domains.insert("definitely-not-present.test");
  f.domains.assign(domains.begin(), domains.end());

  std::set<Date> dates;
  for (const auto& record : f.scratch->stale_records()) {
    for (const std::int64_t shift : {-1, 0, 1}) {
      dates.insert(record.staleness.begin() + shift);
      dates.insert(record.staleness.end() + shift);
    }
  }
  const store::ArchiveMeta& meta = f.scratch->meta();
  for (Date d = meta.start; d <= meta.end; d += 11) dates.insert(d);
  dates.insert(meta.end);
  f.dates.assign(dates.begin(), dates.end());
  return f;
}

const Fixture& golden_fixture() {
  static const Fixture fixture = [] {
    const std::string dir = STALECERT_FEED_TEST_DATA_DIR;
    return build_fixture(sim::small_test_config().seed, {{3, 1}},
                         {dir + "/delta-2023-01-01-2023-01-01.scwd",
                          dir + "/delta-2023-01-02-2023-01-02.scwd",
                          dir + "/delta-2023-01-03-2023-01-03.scwd"},
                         "feed_diff_golden");
  }();
  return fixture;
}

const Fixture& fresh_fixture() {
  static const Fixture fixture =
      build_fixture(20260808, {{7, 1}}, {}, "feed_diff_fresh");
  return fixture;
}

/// Four daily deltas, then one 400-day slice holding more certificates
/// than the base (the patched levels merge into the base level), then a
/// 3-day slice patched on top of the merged base.
Fixture build_merge_fixture() {
  return build_fixture(20260809, {{4, 1}, {403, 400}}, {}, "feed_diff_merge");
}

class FeedDifferentialTest : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] const Fixture& fixture() const {
    return std::string(GetParam()) == "golden" ? golden_fixture()
                                               : fresh_fixture();
  }
};

TEST_P(FeedDifferentialTest, DeltasActuallyChangedTheWorld) {
  // The equivalence below is vacuous if the deltas were empty: the
  // extension must add certificates, and at least one delta window must
  // have produced new stale records somewhere across both fixtures.
  const Fixture& f = fixture();
  EXPECT_GT(f.deltas_applied, 0u);
  EXPECT_GT(f.new_certificates, 0u);
  EXPECT_EQ(f.patched->patch_generation(), f.deltas_applied);
  EXPECT_GT(golden_fixture().new_stale_records +
                fresh_fixture().new_stale_records,
            0u);
}

void check_meta_and_totals_agree(const Fixture& f) {
  EXPECT_EQ(f.patched->meta().end, f.scratch->meta().end);
  EXPECT_EQ(f.patched->corpus().size(), f.scratch->corpus().size());
  EXPECT_EQ(f.patched->stale_records().size(), f.scratch->stale_records().size());
  EXPECT_EQ(f.patched->stats().certificates, f.scratch->stats().certificates);
  EXPECT_EQ(f.patched->stats().stale_records, f.scratch->stats().stale_records);
  EXPECT_EQ(f.patched->stats().by_class, f.scratch->stats().by_class);
  EXPECT_EQ(f.patched->stats().distinct_keys, f.scratch->stats().distinct_keys);
  EXPECT_EQ(f.patched->stats().revoked_serials,
            f.scratch->stats().revoked_serials);
}

TEST_P(FeedDifferentialTest, MetaAndTotalsAgree) {
  check_meta_and_totals_agree(fixture());
}

void check_corpus_contents_agree(const Fixture& f) {
  std::multiset<std::string> patched, scratch;
  for (std::uint32_t i = 0; i < f.patched->corpus().size(); ++i) {
    patched.insert(cert_identity(f.patched->corpus(), i));
  }
  for (std::uint32_t i = 0; i < f.scratch->corpus().size(); ++i) {
    scratch.insert(cert_identity(f.scratch->corpus(), i));
  }
  EXPECT_EQ(patched, scratch);
}

TEST_P(FeedDifferentialTest, CorpusContentsAgree) {
  check_corpus_contents_agree(fixture());
}

void check_stale_record_contents_agree(const Fixture& f) {
  std::multiset<std::string> patched, scratch;
  for (std::uint32_t r = 0; r < f.patched->stale_records().size(); ++r) {
    patched.insert(record_identity(*f.patched, r));
  }
  for (std::uint32_t r = 0; r < f.scratch->stale_records().size(); ++r) {
    scratch.insert(record_identity(*f.scratch, r));
  }
  EXPECT_EQ(patched, scratch);
}

TEST_P(FeedDifferentialTest, StaleRecordContentsAgree) {
  check_stale_record_contents_agree(fixture());
}

void check_certs_for_fqdn_agrees(const Fixture& f) {
  for (const auto& domain : f.domains) {
    EXPECT_EQ(cert_identities(*f.patched, f.patched->certs_for_fqdn(domain)),
              cert_identities(*f.scratch, f.scratch->certs_for_fqdn(domain)))
        << domain;
  }
}

TEST_P(FeedDifferentialTest, CertsForFqdnAgrees) {
  check_certs_for_fqdn_agrees(fixture());
}

void check_certs_for_key_agrees(const Fixture& f) {
  std::set<std::string> keys;
  for (const auto& cert : f.scratch->corpus().certificates()) {
    keys.insert(cert.subject_key().fingerprint_hex());
  }
  keys.insert("not-a-fingerprint");
  for (const auto& key : keys) {
    EXPECT_EQ(cert_identities(*f.patched, f.patched->certs_for_key(key)),
              cert_identities(*f.scratch, f.scratch->certs_for_key(key)))
        << key;
  }
}

TEST_P(FeedDifferentialTest, CertsForKeyAgrees) {
  check_certs_for_key_agrees(fixture());
}

void check_is_stale_and_point_queries_agree(const Fixture& f) {
  for (const auto& domain : f.domains) {
    for (const auto date : f.dates) {
      EXPECT_EQ(f.patched->is_stale(domain, date),
                f.scratch->is_stale(domain, date))
          << domain << " @ " << date.to_string();
      EXPECT_EQ(
          record_identities(*f.patched, f.patched->stale_records_for(domain, date)),
          record_identities(*f.scratch,
                            f.scratch->stale_records_for(domain, date)))
          << domain << " @ " << date.to_string();
    }
  }
}

TEST_P(FeedDifferentialTest, IsStaleAndPointQueriesAgree) {
  check_is_stale_and_point_queries_agree(fixture());
}

void check_range_queries_agree(const Fixture& f) {
  for (const auto& domain : f.domains) {
    for (std::size_t i = 0; i + 1 < f.dates.size(); i += 3) {
      const DateInterval range{f.dates[i], f.dates[i + 1]};
      EXPECT_EQ(record_identities(
                    *f.patched, f.patched->stale_records_for_range(domain, range)),
                record_identities(
                    *f.scratch, f.scratch->stale_records_for_range(domain, range)))
          << domain;
    }
  }
}

TEST_P(FeedDifferentialTest, RangeQueriesAgree) {
  check_range_queries_agree(fixture());
}

void check_stale_at_agrees(const Fixture& f) {
  for (const auto date : f.dates) {
    EXPECT_EQ(record_identities(*f.patched, f.patched->stale_at(date)),
              record_identities(*f.scratch, f.scratch->stale_at(date)))
        << date.to_string();
    for (const auto cls : core::kAllStaleClasses) {
      EXPECT_EQ(record_identities(*f.patched, f.patched->stale_at(date, cls)),
                record_identities(*f.scratch, f.scratch->stale_at(date, cls)))
          << date.to_string() << " class " << core::to_string(cls);
    }
  }
}

TEST_P(FeedDifferentialTest, StaleAtAgrees) {
  check_stale_at_agrees(fixture());
}

void check_stale_summary_agrees(const Fixture& f) {
  for (const auto& domain : f.domains) {
    const query::DomainSummary patched = f.patched->stale_summary(domain);
    const query::DomainSummary scratch = f.scratch->stale_summary(domain);
    EXPECT_EQ(patched.certificates, scratch.certificates) << domain;
    EXPECT_EQ(patched.stale_by_class, scratch.stale_by_class) << domain;
    EXPECT_EQ(patched.earliest_event, scratch.earliest_event) << domain;
    EXPECT_EQ(patched.latest_staleness_end, scratch.latest_staleness_end)
        << domain;
  }
}

TEST_P(FeedDifferentialTest, StaleSummaryAgrees) {
  check_stale_summary_agrees(fixture());
}

void check_revocation_status_agrees(const Fixture& f) {
  std::set<std::string> serials;
  for (const auto& cert : f.scratch->corpus().certificates()) {
    serials.insert(util::to_lower(cert.serial_hex()));
  }
  serials.insert("feedfacefeedface");
  for (const auto& serial : serials) {
    const auto patched = f.patched->revocation_status(serial);
    const auto scratch = f.scratch->revocation_status(serial);
    ASSERT_EQ(patched.has_value(), scratch.has_value()) << serial;
    if (patched) {
      EXPECT_EQ(patched->revocation_date, scratch->revocation_date) << serial;
      EXPECT_EQ(patched->reason, scratch->reason) << serial;
      // cert_index is order-dependent; the cert it names must not be.
      EXPECT_EQ(cert_identity(f.patched->corpus(), patched->cert_index),
                cert_identity(f.scratch->corpus(), scratch->cert_index))
          << serial;
    }
  }
}

TEST_P(FeedDifferentialTest, RevocationStatusAgrees) {
  check_revocation_status_agrees(fixture());
}

void check_valid_cert_count_agrees(const Fixture& f) {
  for (const auto date : f.dates) {
    EXPECT_EQ(f.patched->valid_cert_count(date),
              f.scratch->valid_cert_count(date))
        << date.to_string();
  }
}

TEST_P(FeedDifferentialTest, ValidCertCountAgrees) {
  check_valid_cert_count_agrees(fixture());
}

INSTANTIATE_TEST_SUITE_P(Worlds, FeedDifferentialTest,
                         ::testing::Values("golden", "fresh"));

// The merge schedule is slow to simulate (~800 extension days), so its
// comparisons run in one process instead of one per TEST_P.
TEST(FeedMergeDifferentialTest, EveryQueryAgreesAcrossLevelMerges) {
  const Fixture f = build_merge_fixture();
  ASSERT_EQ(f.deltas_applied, 6u);
  EXPECT_EQ(f.rebuilds, 0u);
  EXPECT_TRUE(f.merged);
  EXPECT_TRUE(f.merged_into_base);
  EXPECT_GT(f.patched->level_count(), 1u);  // patched after the base merge
  check_meta_and_totals_agree(f);
  check_corpus_contents_agree(f);
  check_stale_record_contents_agree(f);
  check_certs_for_fqdn_agrees(f);
  check_certs_for_key_agrees(f);
  check_is_stale_and_point_queries_agree(f);
  check_range_queries_agree(f);
  check_stale_at_agrees(f);
  check_stale_summary_agrees(f);
  check_revocation_status_agrees(f);
  check_valid_cert_count_agrees(f);
}

}  // namespace
}  // namespace stalecert::feed
