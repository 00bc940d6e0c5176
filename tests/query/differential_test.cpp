// Differential correctness: every StalenessIndex query surface is
// cross-checked against a naive linear scan of the same PipelineResult, on
// two worlds — the committed golden fixture and a freshly simulated small
// world. The naive side re-derives the at-risk contract from scratch (no
// shared helper), so an indexing bug and a specification bug cannot cancel
// out.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "stalecert/core/pipeline.hpp"
#include "stalecert/dns/name.hpp"
#include "stalecert/query/index.hpp"
#include "stalecert/sim/world.hpp"
#include "stalecert/store/archive.hpp"
#include "stalecert/util/strings.hpp"
#include "support/temp_path.hpp"

#ifndef STALECERT_QUERY_TEST_DATA_DIR
#error "STALECERT_QUERY_TEST_DATA_DIR must be defined by the build"
#endif

namespace stalecert::query {
namespace {

using core::StaleClass;
using util::Date;
using util::DateInterval;

std::string naive_normalize(const std::string& name) {
  std::string lower = util::to_lower(name);
  if (lower.rfind("*.", 0) == 0) lower = lower.substr(2);
  return lower;
}

/// The flattened record list in the index's documented order (class-major
/// over kAllStaleClasses), so naive record indices line up with the
/// index's.
std::vector<core::StaleCertificate> naive_records(
    const core::PipelineResult& result) {
  std::vector<core::StaleCertificate> records;
  for (const auto cls : core::kAllStaleClasses) {
    for (const auto& stale : result.of(cls)) records.push_back(stale);
  }
  return records;
}

/// Independent restatement of the serving contract: a record endangers a
/// domain when the domain is one of the certificate's names (all of them
/// for key compromise, only those under the trigger e2LD otherwise) or the
/// trigger domain itself.
bool naive_endangers(const core::CertificateCorpus& corpus,
                     const core::StaleCertificate& record,
                     const std::string& domain) {
  if (naive_normalize(record.trigger_domain) == domain) return true;
  for (const auto& raw : corpus.at(record.corpus_index).dns_names()) {
    const std::string name = naive_normalize(raw);
    if (name != domain) continue;
    if (record.cls == StaleClass::kKeyCompromise) return true;
    const auto e2 = dns::e2ld(name);
    if (e2 && *e2 == naive_normalize(record.trigger_domain)) return true;
  }
  return false;
}

struct Fixture {
  store::ArchiveMeta meta;
  core::PipelineResult result;
  std::vector<core::StaleCertificate> records;
  std::shared_ptr<const StalenessIndex> index;

  // Probe sets derived from the data itself, plus guaranteed misses.
  std::vector<std::string> domains;
  std::vector<Date> dates;
};

Fixture build_fixture(const std::string& archive_path) {
  Fixture f;
  const store::LoadedWorld world = store::load_world(archive_path);
  f.meta = world.meta;

  core::PipelineConfig config;
  config.revocation_cutoff = world.meta.revocation_cutoff;
  config.delegation_patterns = world.meta.delegation_patterns;
  config.managed_san_pattern = world.meta.managed_san_pattern;
  f.result = core::run_pipeline(world.ct_logs, world.revocations,
                                world.re_registrations(), world.adns, config);
  f.records = naive_records(f.result);
  f.index = std::make_shared<const StalenessIndex>(f.result, f.meta);

  std::set<std::string> domains;
  for (const auto& cert : f.result.corpus.certificates()) {
    for (const auto& name : cert.dns_names()) {
      domains.insert(naive_normalize(name));
      if (const auto e2 = dns::e2ld(naive_normalize(name))) domains.insert(*e2);
    }
  }
  for (const auto& record : f.records) {
    domains.insert(naive_normalize(record.trigger_domain));
  }
  domains.insert("definitely-not-present.test");
  f.domains.assign(domains.begin(), domains.end());

  std::set<Date> dates;
  for (const auto& record : f.records) {
    for (const std::int64_t delta : {-1, 0, 1}) {
      dates.insert(record.staleness.begin() + delta);
      dates.insert(record.staleness.end() + delta);
    }
  }
  for (Date d = f.meta.start; d <= f.meta.end; d += 13) dates.insert(d);
  f.dates.assign(dates.begin(), dates.end());
  return f;
}

const Fixture& golden_fixture() {
  static const Fixture fixture = build_fixture(
      std::string(STALECERT_QUERY_TEST_DATA_DIR) + "/golden_small.scw");
  return fixture;
}

const Fixture& fresh_fixture() {
  static const Fixture fixture = [] {
    sim::WorldConfig config = sim::small_test_config();
    config.seed = 20260806;
    sim::World world(config);
    world.run();
    const std::string path =
        testutil::unique_temp_path("differential_fresh.scw");
    store::save_world(world, path, nullptr, "small");
    return build_fixture(path);
  }();
  return fixture;
}

class DifferentialTest : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] const Fixture& fixture() const {
    return std::string(GetParam()) == "golden" ? golden_fixture()
                                               : fresh_fixture();
  }
};

TEST_P(DifferentialTest, FreshWorldProducesStaleRecords) {
  // The probe sets are only meaningful when the pipeline found something;
  // the simulated world must produce stale certificates.
  if (std::string(GetParam()) == "fresh") {
    EXPECT_GT(fixture().records.size(), 0u);
  }
  EXPECT_EQ(fixture().index->stale_records().size(), fixture().records.size());
}

TEST_P(DifferentialTest, CertsForFqdnMatchesLinearScan) {
  const Fixture& f = fixture();
  for (const auto& domain : f.domains) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < f.result.corpus.size(); ++i) {
      const auto& names = f.result.corpus.at(i).dns_names();
      if (std::any_of(names.begin(), names.end(), [&](const std::string& n) {
            return naive_normalize(n) == domain;
          })) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(f.index->certs_for_fqdn(domain), expected) << domain;
  }
}

TEST_P(DifferentialTest, CertsForKeyMatchesLinearScan) {
  const Fixture& f = fixture();
  std::set<std::string> keys;
  for (const auto& cert : f.result.corpus.certificates()) {
    keys.insert(cert.subject_key().fingerprint_hex());
  }
  keys.insert("not-a-fingerprint");
  for (const auto& key : keys) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < f.result.corpus.size(); ++i) {
      if (f.result.corpus.at(i).subject_key().fingerprint_hex() == key) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(f.index->certs_for_key(key), expected) << key;
  }
}

TEST_P(DifferentialTest, StaleRecordsForMatchesLinearScan) {
  const Fixture& f = fixture();
  for (const auto& domain : f.domains) {
    for (const auto date : f.dates) {
      std::vector<std::uint32_t> expected;
      for (std::uint32_t i = 0; i < f.records.size(); ++i) {
        if (f.records[i].staleness.contains(date) &&
            naive_endangers(f.result.corpus, f.records[i], domain)) {
          expected.push_back(i);
        }
      }
      EXPECT_EQ(f.index->stale_records_for(domain, date), expected)
          << domain << " @ " << date.to_string();
      EXPECT_EQ(f.index->is_stale(domain, date), !expected.empty());
    }
  }
}

TEST_P(DifferentialTest, StaleRecordsForRangeMatchesLinearScan) {
  const Fixture& f = fixture();
  for (const auto& domain : f.domains) {
    for (std::size_t i = 0; i + 1 < f.dates.size(); i += 3) {
      const DateInterval range{f.dates[i], f.dates[i + 1]};
      std::vector<std::uint32_t> expected;
      for (std::uint32_t r = 0; r < f.records.size(); ++r) {
        if (f.records[r].staleness.overlaps(range) &&
            naive_endangers(f.result.corpus, f.records[r], domain)) {
          expected.push_back(r);
        }
      }
      EXPECT_EQ(f.index->stale_records_for_range(domain, range), expected)
          << domain;
    }
  }
}

TEST_P(DifferentialTest, StaleAtMatchesLinearScan) {
  const Fixture& f = fixture();
  for (const auto date : f.dates) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < f.records.size(); ++i) {
      if (f.records[i].staleness.contains(date)) expected.push_back(i);
    }
    EXPECT_EQ(f.index->stale_at(date), expected) << date.to_string();

    for (const auto cls : core::kAllStaleClasses) {
      std::vector<std::uint32_t> by_class;
      for (const auto i : expected) {
        if (f.records[i].cls == cls) by_class.push_back(i);
      }
      EXPECT_EQ(f.index->stale_at(date, cls), by_class)
          << date.to_string() << " class " << core::to_string(cls);
    }
  }
}

TEST_P(DifferentialTest, RevocationStatusMatchesLinearScan) {
  const Fixture& f = fixture();
  std::set<std::string> serials;
  for (const auto& cert : f.result.corpus.certificates()) {
    serials.insert(util::to_lower(cert.serial_hex()));
  }
  serials.insert("feedfacefeedface");
  for (const auto& serial : serials) {
    std::optional<RevocationStatus> expected;
    for (const auto& revoked : f.result.revocations.all_revoked) {
      const auto& cert = f.result.corpus.at(revoked.corpus_index);
      if (util::to_lower(cert.serial_hex()) != serial) continue;
      RevocationStatus candidate;
      candidate.cert_index = static_cast<std::uint32_t>(revoked.corpus_index);
      candidate.revocation_date = revoked.event_date;
      candidate.reason =
          revoked.reason.value_or(revocation::ReasonCode::kUnspecified);
      const bool better =
          !expected ||
          candidate.revocation_date < expected->revocation_date ||
          (candidate.revocation_date == expected->revocation_date &&
           candidate.cert_index < expected->cert_index);
      if (better) expected = candidate;
    }
    const auto got = f.index->revocation_status(serial);
    ASSERT_EQ(got.has_value(), expected.has_value()) << serial;
    if (expected) {
      EXPECT_EQ(got->cert_index, expected->cert_index) << serial;
      EXPECT_EQ(got->revocation_date, expected->revocation_date) << serial;
      EXPECT_EQ(got->reason, expected->reason) << serial;
    }
  }
}

TEST_P(DifferentialTest, ValidCertCountMatchesLinearScan) {
  const Fixture& f = fixture();
  for (const auto date : f.dates) {
    std::size_t expected = 0;
    for (const auto& cert : f.result.corpus.certificates()) {
      if (cert.not_before() <= date && date < cert.not_after()) ++expected;
    }
    EXPECT_EQ(f.index->valid_cert_count(date), expected) << date.to_string();
  }
}

TEST_P(DifferentialTest, StaleSummaryMatchesLinearScan) {
  const Fixture& f = fixture();
  for (const auto& domain : f.domains) {
    std::array<std::uint64_t, core::kStaleClassCount> by_class{};
    std::optional<Date> earliest;
    std::optional<Date> latest_end;
    for (const auto& record : f.records) {
      if (!naive_endangers(f.result.corpus, record, domain)) continue;
      by_class[static_cast<std::size_t>(record.cls)]++;
      if (!earliest || record.event_date < *earliest) {
        earliest = record.event_date;
      }
      if (!latest_end || *latest_end < record.staleness.end()) {
        latest_end = record.staleness.end();
      }
    }
    const auto summary = f.index->stale_summary(domain);
    EXPECT_EQ(summary.stale_by_class, by_class) << domain;
    EXPECT_EQ(summary.earliest_event, earliest) << domain;
    EXPECT_EQ(summary.latest_staleness_end, latest_end) << domain;
    EXPECT_EQ(summary.certificates, f.index->certs_for_fqdn(domain).size())
        << domain;
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, DifferentialTest,
                         ::testing::Values("golden", "fresh"));

}  // namespace
}  // namespace stalecert::query
