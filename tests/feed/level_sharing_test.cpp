// Shared snapshot storage across deltas: a successor snapshot shares the
// storage levels of its base instead of copying them, a snapshot someone
// still holds never changes under later patches, and readers holding
// superseded snapshots race safely with applies and drops
// (LevelSharingConcurrencyTest runs under the TSan CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stalecert/dns/name.hpp"
#include "stalecert/feed/applier.hpp"
#include "stalecert/feed/extend.hpp"
#include "stalecert/query/index.hpp"
#include "stalecert/query/service.hpp"
#include "stalecert/sim/world.hpp"
#include "stalecert/store/archive.hpp"
#include "stalecert/util/strings.hpp"
#include "support/temp_path.hpp"

namespace stalecert::feed {
namespace {

using query::StalenessIndex;
using util::Date;

constexpr std::int64_t kDays = 30;

struct SharingWorld {
  std::string base_path;
  std::vector<WorldDelta> deltas;  // kDays daily deltas, in order
};

const SharingWorld& sharing_world() {
  static const SharingWorld shared = [] {
    SharingWorld w;
    w.base_path = testutil::unique_temp_path("level_sharing_base.scw");
    sim::World world(sim::small_test_config());
    world.run();
    store::save_world(world, w.base_path, nullptr, "small");
    w.deltas = extend_world(store::ArchiveReader(w.base_path).meta(), kDays);
    return w;
  }();
  return shared;
}

DeltaApplier make_applier() {
  const auto& w = sharing_world();
  return DeltaApplier(store::load_world(w.base_path),
                      StalenessIndex::from_archive(w.base_path));
}

template <typename Range>
std::string joined(const Range& values) {
  std::ostringstream out;
  for (const auto& v : values) out << v << ',';
  return out.str();
}

/// Every answer `index` gives over probes drawn from `probe_source`,
/// rendered into one string: equal strings mean equal answers.
std::string render(const StalenessIndex& index,
                   const StalenessIndex& probe_source) {
  std::set<std::string> domains{"never-issued.test"};
  std::set<std::string> keys{"00ff"};
  std::set<std::string> serials{"feedface"};
  for (const auto& cert : probe_source.corpus().certificates()) {
    for (const auto& raw : cert.dns_names()) {
      const std::string name = query::normalize_domain(raw);
      domains.insert(name);
      if (const auto e2 = dns::e2ld(name)) domains.insert(*e2);
    }
    keys.insert(cert.subject_key().fingerprint_hex());
    serials.insert(util::to_lower(cert.serial_hex()));
  }
  std::set<Date> dates{probe_source.meta().start, probe_source.meta().end};
  for (const auto& record : probe_source.stale_records()) {
    dates.insert(record.staleness.begin());
    dates.insert(record.staleness.end() - 1);
  }

  std::ostringstream out;
  const auto& stats = index.stats();
  out << "meta " << index.meta().end.to_string() << " gen "
      << index.patch_generation() << " stats " << stats.certificates << ' '
      << stats.stale_records << ' ' << joined(stats.by_class) << ' '
      << stats.distinct_keys << ' ' << stats.distinct_domains << ' '
      << stats.revoked_serials << '\n';
  for (const auto& cert : index.corpus().certificates()) {
    out << "cert " << cert.serial_hex() << ' ' << joined(cert.dns_names())
        << '\n';
  }
  for (const auto& record : index.stale_records()) {
    out << "record " << record.cert_index << ' ' << record.trigger_domain
        << ' ' << record.staleness.begin().to_string() << '\n';
  }
  for (const auto cls : core::kAllStaleClasses) {
    out << "class " << joined(index.of_class(cls)) << '\n';
  }
  for (const auto& domain : domains) {
    const query::DomainSummary summary = index.stale_summary(domain);
    out << domain << ' ' << joined(index.certs_for_fqdn(domain)) << ' '
        << summary.certificates << ' ' << joined(summary.stale_by_class)
        << '\n';
    for (const auto date : dates) {
      const auto hits = index.stale_records_for(domain, date);
      if (!hits.empty()) {
        out << "  " << date.to_string() << ' ' << joined(hits);
      }
    }
    out << '\n';
  }
  for (const auto& key : keys) {
    out << key << ' ' << joined(index.certs_for_key(key)) << '\n';
  }
  for (const auto& serial : serials) {
    if (const auto status = index.revocation_status(serial)) {
      out << serial << ' ' << status->cert_index << ' '
          << status->revocation_date.to_string() << '\n';
    }
  }
  for (const auto date : dates) {
    out << date.to_string() << ' ' << joined(index.stale_at(date)) << ' '
        << index.valid_cert_count(date) << '\n';
  }
  return out.str();
}

TEST(LevelSharingTest, SuccessorSharesTheBaseStorage) {
  DeltaApplier applier = make_applier();
  const auto base = applier.index();
  ASSERT_EQ(base->level_count(), 1u);
  ASSERT_EQ(base->corpus().level_count(), 1u);

  const auto next = applier.apply(sharing_world().deltas[0]).index;
  ASSERT_GT(next->corpus().size(), base->corpus().size());
  // The successor addresses the base's certificate and record objects
  // themselves, not copies of them.
  EXPECT_EQ(&next->corpus().at(0), &base->corpus().at(0));
  EXPECT_EQ(&next->corpus().at(base->corpus().size() - 1),
            &base->corpus().at(base->corpus().size() - 1));
  ASSERT_FALSE(base->stale_records().empty());
  EXPECT_EQ(&next->stale_records()[0], &base->stale_records()[0]);
  EXPECT_EQ(next->corpus().level_count(), 2u);
  EXPECT_EQ(next->level_count(), 2u);
}

TEST(LevelSharingTest, HeldBaseAnswersIdenticallyAfterThirtyPatches) {
  DeltaApplier applier = make_applier();
  const auto base = applier.index();
  const std::string before = render(*base, *base);

  std::shared_ptr<const StalenessIndex> latest;
  for (const auto& delta : sharing_world().deltas) {
    const auto applied = applier.apply(delta);
    ASSERT_FALSE(applied.rebuilt);
    latest = applied.index;
  }
  ASSERT_EQ(latest->patch_generation(), static_cast<std::uint64_t>(kDays));
  EXPECT_GT(latest->corpus().size(), base->corpus().size());

  EXPECT_EQ(render(*base, *base), before);
  // Merges kept the level list short: sizes strictly decrease from the
  // base, and thirty similar days merge like a binary counter.
  EXPECT_LE(latest->level_count(), 8u);
  EXPECT_LE(latest->corpus().level_count(), 8u);
}

// TSan-targeted: readers keep a few superseded snapshots alive and query
// them while the writer applies deltas and publishes successors, so
// levels are shared, merged and freed under concurrent reads.
TEST(LevelSharingConcurrencyTest, ReadersHoldSupersededSnapshotsWhileApplying) {
  DeltaApplier applier = make_applier();
  query::SnapshotCell cell;
  cell.set(applier.index());
  const auto base = applier.index();
  const std::string probe_domain =
      query::normalize_domain(base->corpus().at(0).dns_names().front());
  const std::string probe_key =
      base->corpus().at(0).subject_key().fingerprint_hex();
  const Date probe_date = base->meta().end;

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::vector<std::shared_ptr<const StalenessIndex>> held;
      std::size_t turn = static_cast<std::size_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        held.push_back(cell.get());
        // Keep up to three snapshots; dropping the oldest may free levels
        // a merge replaced.
        if (held.size() > 3) held.erase(held.begin());
        const StalenessIndex& index = *held[turn++ % held.size()];
        std::size_t sink = index.certs_for_fqdn(probe_domain).size() +
                           index.certs_for_key(probe_key).size() +
                           index.stale_at(probe_date).size() +
                           index.valid_cert_count(probe_date);
        for (const auto& record : index.stale_records()) {
          sink += index.corpus().at(record.cert_index).dns_names().size();
        }
        EXPECT_GE(sink, index.certs_for_key(probe_key).size());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (const auto& delta : sharing_world().deltas) {
    cell.set(applier.apply(delta).index);
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(cell.get()->patch_generation(), static_cast<std::uint64_t>(kDays));
}

}  // namespace
}  // namespace stalecert::feed
