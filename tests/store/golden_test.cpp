// Golden-file backward compatibility: tests/store/data/golden_small.scw is
// a committed archive of a small hand-built world. Decoding it pins the
// on-disk format: any byte-level change to the encoders without a
// kFormatVersion bump makes these tests fail (either the golden file stops
// decoding, or re-encoding the same datasets stops being byte-identical).
//
// Versioning policy (see src/store/README.md): when kFormatVersion is
// deliberately bumped, regenerate the fixture by running this binary once
// with STALECERT_REGEN_GOLDEN=1 and commit the new file alongside the bump.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "stalecert/store/archive.hpp"
#include "stalecert/x509/certificate.hpp"
#include "support/temp_path.hpp"

#ifndef STALECERT_STORE_TEST_DATA_DIR
#error "STALECERT_STORE_TEST_DATA_DIR must be defined by the build"
#endif

namespace stalecert::store {
namespace {

const std::string kGoldenPath =
    std::string(STALECERT_STORE_TEST_DATA_DIR) + "/golden_small.scw";

x509::Certificate make_cert(std::uint64_t serial, const std::string& fqdn,
                            int issue_year, std::int64_t lifetime_days,
                            const std::string& issuer_label) {
  const auto key = crypto::KeyPair::derive("golden/" + fqdn,
                                           crypto::KeyAlgorithm::kEcdsaP256);
  const auto issuer_key =
      crypto::KeyPair::derive("golden-ca/" + issuer_label,
                              crypto::KeyAlgorithm::kEcdsaP256);
  const util::Date not_before = util::Date::from_ymd(issue_year, 2, 1);
  return x509::CertificateBuilder()
      .serial(serial)
      .subject_cn(fqdn)
      .add_dns_name(fqdn)
      .validity(not_before, not_before + lifetime_days)
      .key(key)
      .authority_key_id(issuer_key.key_id())
      .server_auth_profile()
      .build();
}

/// The fixture's source datasets, rebuilt identically on every run. This is
/// the reference the golden file is compared against in both directions.
struct GoldenDatasets {
  ArchiveMeta meta;
  ct::LogSet logs;
  revocation::RevocationStore revocations;
  std::vector<whois::NewRegistration> registrations;
  dns::SnapshotStore adns;
  sim::World::Stats stats;
};

GoldenDatasets build_golden() {
  GoldenDatasets g;
  g.meta.profile = "custom";
  g.meta.seed = 424242;
  g.meta.start = util::Date::from_ymd(2021, 1, 1);
  g.meta.end = util::Date::from_ymd(2022, 12, 31);
  g.meta.revocation_cutoff = util::Date::from_ymd(2021, 10, 1);
  g.meta.delegation_patterns = {"*.ns.cloudflare.test"};
  g.meta.managed_san_pattern = "sni*.cloudflaressl.test";

  // Two logs: one unsharded, one 2022 expiry shard — covers both header
  // encodings.
  const std::size_t plain =
      g.logs.add_log(ct::CtLog(1, "golden2021", "Golden Op", {true, false}));
  const std::size_t sharded = g.logs.add_log(ct::CtLog(
      2, "golden2022h1", "Golden Op", {true, true},
      util::DateInterval{util::Date::from_ymd(2022, 1, 1),
                         util::Date::from_ymd(2023, 1, 1)}));
  const auto c1 = make_cert(1001, "alpha.example.com", 2021, 90, "golden-ca");
  const auto c2 = make_cert(1002, "beta.example.com", 2021, 398, "golden-ca");
  const auto c3 = make_cert(1003, "gamma.example.com", 2022, 90, "other-ca");
  g.logs.log(plain).submit(c1, c1.not_before());
  g.logs.log(plain).submit(c2, c2.not_before());
  g.logs.log(sharded).submit(c3, c3.not_before());

  const auto aki1 = crypto::KeyPair::derive("golden-ca/golden-ca",
                                            crypto::KeyAlgorithm::kEcdsaP256)
                        .key_id();
  const auto aki2 = crypto::KeyPair::derive("golden-ca/other-ca",
                                            crypto::KeyAlgorithm::kEcdsaP256)
                        .key_id();
  g.revocations.add(aki1, c1.serial(),
                    {util::Date::from_ymd(2021, 3, 15),
                     revocation::ReasonCode::kKeyCompromise});
  g.revocations.add(aki1, c2.serial(),
                    {util::Date::from_ymd(2021, 11, 2),
                     revocation::ReasonCode::kSuperseded});
  g.revocations.add(aki2, c3.serial(),
                    {util::Date::from_ymd(2022, 5, 1),
                     revocation::ReasonCode::kCessationOfOperation});

  g.registrations.push_back({"alpha.example.com",
                             util::Date::from_ymd(2021, 3, 1),
                             util::Date::from_ymd(2018, 3, 1)});
  g.registrations.push_back(
      {"beta.example.com", util::Date::from_ymd(2021, 6, 1), std::nullopt});

  dns::DailySnapshot day1;
  day1.date = util::Date::from_ymd(2022, 8, 1);
  day1.records["alpha.example.com"].ns = {"ada.ns.cloudflare.test"};
  day1.records["beta.example.com"].a = {"192.0.2.7"};
  g.adns.add(day1);
  dns::DailySnapshot day2;
  day2.date = util::Date::from_ymd(2022, 8, 2);
  day2.records["alpha.example.com"].ns = {"ns1.selfhosted.test"};  // departure
  g.adns.add(day2);  // beta.example.com dropped out of the scan

  g.stats.domains_registered = 3;
  g.stats.domains_reregistered = 1;
  g.stats.certificates_issued = 3;
  g.stats.key_compromises = 1;
  g.stats.other_revocations = 2;
  return g;
}

std::uint64_t write_golden(const GoldenDatasets& g, const std::string& path) {
  return ArchiveWriter(g.meta)
      .ct_logs(g.logs)
      .revocations(g.revocations)
      .registrations(g.registrations)
      .adns(g.adns)
      .stats(g.stats)
      .write(path);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bool maybe_regenerate() {
  if (std::getenv("STALECERT_REGEN_GOLDEN") == nullptr) return false;
  const auto bytes = write_golden(build_golden(), kGoldenPath);
  std::cerr << "regenerated " << kGoldenPath << " (" << bytes << " bytes)\n";
  return true;
}

TEST(GoldenArchiveTest, FixtureDecodesWithCurrentReader) {
  if (maybe_regenerate()) GTEST_SKIP() << "fixture regenerated";
  const ArchiveReader reader(kGoldenPath);
  EXPECT_EQ(reader.meta().profile, "custom");
  EXPECT_EQ(reader.meta().seed, 424242u);

  const LoadedWorld loaded = reader.load_world();
  const GoldenDatasets expected = build_golden();
  ASSERT_EQ(loaded.ct_logs.log_count(), 2u);
  EXPECT_EQ(loaded.ct_logs.total_entries(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& want = expected.logs.log(i);
    const auto& got = loaded.ct_logs.log(i);
    ASSERT_EQ(got.entries().size(), want.entries().size());
    for (std::size_t j = 0; j < want.entries().size(); ++j) {
      EXPECT_EQ(got.entries()[j].certificate, want.entries()[j].certificate);
      EXPECT_EQ(got.entries()[j].timestamp, want.entries()[j].timestamp);
    }
  }
  const auto got_revocations = loaded.revocations.entries();
  const auto want_revocations = expected.revocations.entries();
  ASSERT_EQ(got_revocations.size(), want_revocations.size());
  for (std::size_t i = 0; i < want_revocations.size(); ++i) {
    EXPECT_EQ(got_revocations[i].authority_key_id,
              want_revocations[i].authority_key_id);
    EXPECT_EQ(got_revocations[i].serial, want_revocations[i].serial);
    EXPECT_EQ(got_revocations[i].observation.revocation_date,
              want_revocations[i].observation.revocation_date);
  }
  EXPECT_EQ(loaded.registrations, expected.registrations);
  ASSERT_EQ(loaded.adns.days(), 2u);
  EXPECT_EQ(loaded.adns.day(0).records, expected.adns.day(0).records);
  EXPECT_EQ(loaded.adns.day(1).records, expected.adns.day(1).records);
  EXPECT_EQ(loaded.stats.certificates_issued, 3u);
}

TEST(GoldenArchiveTest, EncoderIsByteStableAtThisFormatVersion) {
  if (maybe_regenerate()) GTEST_SKIP() << "fixture regenerated";
  const std::string fresh_path = testutil::unique_temp_path("golden_fresh.scw");
  write_golden(build_golden(), fresh_path);
  const auto golden = read_file(kGoldenPath);
  const auto fresh = read_file(fresh_path);
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(fresh, golden)
      << "the encoder's output changed at format version "
      << kFormatVersion
      << " — either restore byte compatibility or bump kFormatVersion and "
         "regenerate the fixture (STALECERT_REGEN_GOLDEN=1)";
}

}  // namespace
}  // namespace stalecert::store
