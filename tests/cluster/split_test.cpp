// Structural invariants of the static world split and the feed delta
// splitter over the golden archive: replication follows the plan, every
// record survives on exactly the shards that must hold it, and the shard
// slices sum back to the single-node world (owned_stats). The serving
// equivalence of the resulting cluster is cluster_differential_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "stalecert/cluster/shard.hpp"
#include "stalecert/cluster/split.hpp"
#include "stalecert/core/pipeline.hpp"
#include "stalecert/feed/applier.hpp"
#include "stalecert/feed/extend.hpp"
#include "stalecert/feed/format.hpp"
#include "stalecert/query/index.hpp"
#include "stalecert/query/shard.hpp"
#include "stalecert/sim/world.hpp"
#include "stalecert/store/archive.hpp"
#include "stalecert/store/errors.hpp"
#include "stalecert/util/strings.hpp"
#include "support/temp_path.hpp"

namespace stalecert::cluster {
namespace {

constexpr unsigned kShards = 4;

std::string golden_path() {
  return std::string(STALECERT_CLUSTER_TEST_DATA_DIR) + "/golden_small.scw";
}

/// Golden world + its four in-memory shard slices, built once.
struct SplitWorld {
  store::LoadedWorld full;
  std::vector<store::LoadedWorld> shards;
};

const SplitWorld& split_world() {
  static const SplitWorld shared = [] {
    SplitWorld w;
    w.full = store::load_world(golden_path());
    const ShardPlan plan(kShards);
    for (unsigned k = 0; k < kShards; ++k) {
      w.shards.push_back(shard_world(w.full, plan, k));
    }
    return w;
  }();
  return shared;
}

/// Identity of one CT entry for cross-shard membership checks; timestamps
/// disambiguate re-logged certificates.
std::string entry_key(std::uint64_t log_id, const ct::LogEntry& entry) {
  return std::to_string(log_id) + "|" + entry.timestamp.to_string() + "|" +
         util::to_lower(entry.certificate.serial_hex()) + "|" +
         entry.certificate.subject_key().fingerprint_hex();
}

std::string revocation_key(const revocation::RevocationStore::Entry& entry) {
  std::string key(reinterpret_cast<const char*>(entry.authority_key_id.data()),
                  entry.authority_key_id.size());
  key.append(reinterpret_cast<const char*>(entry.serial.data()),
             entry.serial.size());
  return key;
}

TEST(ShardWorldTest, TagsProfileAndKeepsMetaOtherwise) {
  const auto& w = split_world();
  for (unsigned k = 0; k < kShards; ++k) {
    const auto& meta = w.shards[k].meta;
    EXPECT_EQ(meta.profile,
              w.full.meta.profile + "#shard-" + std::to_string(k) + "/4");
    EXPECT_EQ(meta.seed, w.full.meta.seed);
    EXPECT_EQ(meta.start, w.full.meta.start);
    EXPECT_EQ(meta.end, w.full.meta.end);
  }
}

TEST(ShardWorldTest, CertificatesReplicatePerPlanExactly) {
  const auto& w = split_world();
  const ShardPlan plan(kShards);

  // Multiset of entry identities per shard.
  std::vector<std::map<std::string, int>> held(kShards);
  for (unsigned k = 0; k < kShards; ++k) {
    for (const auto& log : w.shards[k].ct_logs.logs()) {
      for (const auto& entry : log.entries()) {
        held[k][entry_key(log.id(), entry)]++;
      }
    }
  }

  std::uint64_t full_entries = 0;
  for (const auto& log : w.full.ct_logs.logs()) {
    for (const auto& entry : log.entries()) {
      ++full_entries;
      const auto expected = plan.shards_for_certificate(entry.certificate);
      ASSERT_FALSE(expected.empty());
      const std::string key = entry_key(log.id(), entry);
      for (unsigned k = 0; k < kShards; ++k) {
        const bool should_hold =
            std::find(expected.begin(), expected.end(), k) != expected.end();
        const auto it = held[k].find(key);
        const bool holds = it != held[k].end() && it->second > 0;
        ASSERT_EQ(holds, should_hold)
            << "shard " << k << " vs entry " << key;
        if (holds) --it->second;  // consume one replica per full entry
      }
    }
  }
  ASSERT_GT(full_entries, 0u) << "golden world has no CT entries";
  // Nothing a shard holds was unaccounted for (no invented entries).
  for (unsigned k = 0; k < kShards; ++k) {
    for (const auto& [key, count] : held[k]) {
      EXPECT_EQ(count, 0) << "shard " << k << " extra replica of " << key;
    }
  }
}

TEST(ShardWorldTest, ShardLogsKeepDenseIndicesAndIdentity) {
  const auto& w = split_world();
  for (unsigned k = 0; k < kShards; ++k) {
    std::set<std::uint64_t> full_log_ids;
    for (const auto& log : w.full.ct_logs.logs()) full_log_ids.insert(log.id());
    for (const auto& log : w.shards[k].ct_logs.logs()) {
      EXPECT_TRUE(full_log_ids.contains(log.id()));
      for (std::size_t i = 0; i < log.entries().size(); ++i) {
        ASSERT_EQ(log.entries()[i].index, i)
            << "shard " << k << " log " << log.id();
      }
    }
  }
}

TEST(ShardWorldTest, RegistrationsLiveOnlyOnTheirHomeShard) {
  const auto& w = split_world();
  const ShardPlan plan(kShards);
  std::size_t total = 0;
  for (unsigned k = 0; k < kShards; ++k) {
    total += w.shards[k].registrations.size();
    for (const auto& event : w.shards[k].registrations) {
      EXPECT_EQ(plan.shard_for_domain(event.domain), k) << event.domain;
    }
  }
  EXPECT_EQ(total, w.full.registrations.size());
  ASSERT_GT(total, 0u) << "golden world has no registrations";
}

TEST(ShardWorldTest, DnsDayChainsStayContiguousAndPartitioned) {
  const auto& w = split_world();
  const ShardPlan plan(kShards);
  const auto& full_days = w.full.adns.all();
  ASSERT_FALSE(full_days.empty());
  std::size_t total_records = 0;
  for (unsigned k = 0; k < kShards; ++k) {
    const auto& days = w.shards[k].adns.all();
    // Every day survives (possibly empty): the departure detector diffs
    // consecutive days, so a shard must never skip one.
    ASSERT_EQ(days.size(), full_days.size()) << "shard " << k;
    for (std::size_t d = 0; d < days.size(); ++d) {
      EXPECT_EQ(days[d].date, full_days[d].date);
      total_records += days[d].records.size();
      for (const auto& [domain, records] : days[d].records) {
        EXPECT_EQ(plan.shard_for_domain(domain), k) << domain;
      }
    }
  }
  std::size_t full_records = 0;
  for (const auto& day : full_days) full_records += day.records.size();
  EXPECT_EQ(total_records, full_records);
}

TEST(ShardWorldTest, EveryRevocationSurvivesOrphansExactlyOnce) {
  const auto& w = split_world();
  const ShardPlan plan(kShards);

  // Which join keys any full-world certificate matches.
  std::set<std::string> matched;
  for (const auto& log : w.full.ct_logs.logs()) {
    for (const auto& entry : log.entries()) {
      if (const auto is = entry.certificate.issuer_serial()) {
        revocation::RevocationStore::Entry probe;
        probe.authority_key_id = is->authority_key_id;
        probe.serial = is->serial;
        matched.insert(revocation_key(probe));
      }
    }
  }

  std::vector<std::set<std::string>> held(kShards);
  for (unsigned k = 0; k < kShards; ++k) {
    for (const auto& entry : w.shards[k].revocations.entries()) {
      held[k].insert(revocation_key(entry));
    }
  }

  ASSERT_FALSE(w.full.revocations.entries().empty());
  for (const auto& entry : w.full.revocations.entries()) {
    const std::string key = revocation_key(entry);
    unsigned holders = 0;
    for (unsigned k = 0; k < kShards; ++k) holders += held[k].contains(key);
    if (matched.contains(key)) {
      EXPECT_GE(holders, 1u);
    } else {
      // A globally orphaned revocation lands on its serial-hash shard and
      // nowhere else, so merged revoked-serial counts stay exact.
      EXPECT_EQ(holders, 1u);
      EXPECT_TRUE(held[plan.shard_for_serial(entry.serial)].contains(key));
    }
  }
}

TEST(ShardWorldTest, OwnedStatsSumBackToSingleNodeStats) {
  // Per-process path: sibling TESTs run as concurrent ctest processes.
  const auto dir =
      testutil::unique_temp_path("cluster_split_sum");
  const ShardPlan plan(kShards);
  const auto paths = write_shard_archives(split_world().full, plan, dir);
  ASSERT_EQ(paths.size(), kShards);

  const auto single = query::StalenessIndex::from_archive(golden_path());
  query::StalenessIndex::Stats sum;
  for (unsigned k = 0; k < kShards; ++k) {
    const auto shard =
        query::StalenessIndex::from_archive(paths[k], plan.scope_for(k));
    EXPECT_TRUE(shard->sharded());
    const auto& owned = shard->owned_stats();
    sum.certificates += owned.certificates;
    sum.stale_records += owned.stale_records;
    sum.distinct_keys += owned.distinct_keys;
    sum.distinct_domains += owned.distinct_domains;
    sum.revoked_serials += owned.revoked_serials;
    for (std::size_t i = 0; i < sum.by_class.size(); ++i) {
      sum.by_class[i] += owned.by_class[i];
    }
  }
  const auto& full = single->stats();
  EXPECT_EQ(sum.certificates, full.certificates);
  EXPECT_EQ(sum.stale_records, full.stale_records);
  EXPECT_EQ(sum.distinct_keys, full.distinct_keys);
  EXPECT_EQ(sum.distinct_domains, full.distinct_domains);
  EXPECT_EQ(sum.revoked_serials, full.revoked_serials);
  EXPECT_EQ(sum.by_class, full.by_class);
}

/// A from-scratch snapshot of `world` with the archive's own pipeline
/// posture (as StalenessIndex::from_archive builds one).
std::shared_ptr<query::StalenessIndex> build_index(
    const store::LoadedWorld& world) {
  core::PipelineConfig config;
  config.revocation_cutoff = world.meta.revocation_cutoff;
  config.delegation_patterns = world.meta.delegation_patterns;
  config.managed_san_pattern = world.meta.managed_san_pattern;
  return std::make_shared<query::StalenessIndex>(
      core::run_pipeline(world.ct_logs, world.revocations,
                         world.re_registrations(), world.adns, config),
      world.meta);
}

void expect_same_stats(const query::StalenessIndex::Stats& patched,
                       const query::StalenessIndex::Stats& scratch,
                       unsigned shard) {
  EXPECT_EQ(patched.certificates, scratch.certificates) << shard;
  EXPECT_EQ(patched.stale_records, scratch.stale_records) << shard;
  EXPECT_EQ(patched.by_class, scratch.by_class) << shard;
  EXPECT_EQ(patched.distinct_keys, scratch.distinct_keys) << shard;
  EXPECT_EQ(patched.distinct_domains, scratch.distinct_domains) << shard;
  EXPECT_EQ(patched.revoked_serials, scratch.revoked_serials) << shard;
}

TEST(ShardPatchTest, OwnedStatsAfterPatchesEqualAFromScratchShardBuild) {
  // Owned stats update from each patch's new level only; after N routed
  // deltas they must equal a shard build over the same accumulated world.
  constexpr std::int64_t kDeltas = 9;
  const std::string path = testutil::unique_temp_path("cluster_patch_base.scw");
  {
    sim::World world(sim::small_test_config());
    world.run();
    store::save_world(world, path, nullptr, "small");
  }
  const store::LoadedWorld full = store::load_world(path);
  const ShardPlan plan(kShards);
  std::vector<std::unique_ptr<feed::DeltaApplier>> appliers;
  for (unsigned k = 0; k < kShards; ++k) {
    store::LoadedWorld slice = shard_world(full, plan, k);
    auto index = build_index(slice);
    index->set_ownership(plan.scope_for(k).owns);
    appliers.push_back(std::make_unique<feed::DeltaApplier>(
        std::move(slice), std::shared_ptr<const query::StalenessIndex>(index)));
  }
  DeltaSplitter splitter(full, plan);
  for (const auto& delta : feed::extend_world(full.meta, kDeltas, 1)) {
    auto routed = splitter.split(delta);
    for (unsigned k = 0; k < kShards; ++k) {
      ASSERT_FALSE(appliers[k]->apply(std::move(routed[k])).rebuilt);
    }
  }
  for (unsigned k = 0; k < kShards; ++k) {
    const auto& patched = *appliers[k]->index();
    ASSERT_EQ(patched.patch_generation(), static_cast<std::uint64_t>(kDeltas));
    const auto scratch = build_index(appliers[k]->world());
    scratch->set_ownership(plan.scope_for(k).owns);
    expect_same_stats(patched.stats(), scratch->stats(), k);
    expect_same_stats(patched.owned_stats(), scratch->owned_stats(), k);
  }
}

TEST(ApplyShardFilterTest, PreSplitArchivePassesThroughMismatchThrows) {
  const ShardPlan plan(kShards);
  const auto& slice = split_world().shards[1];

  // Already tagged with the same label: a no-op, not a double filter.
  const auto again = query::apply_shard_filter(slice, plan.scope_for(1));
  EXPECT_EQ(again.meta.profile, slice.meta.profile);
  EXPECT_EQ(again.registrations.size(), slice.registrations.size());

  // Tagged with a DIFFERENT label: a deployment error, loudly.
  EXPECT_THROW(query::apply_shard_filter(slice, plan.scope_for(2)),
               store::ArchiveError);
}

TEST(DeltaSplitterTest, RoutesDeltasShardLocallyAndStaysSequenced) {
  // The golden archive's "custom" profile is not regenerable, so the feed
  // path gets a fresh simulated world (same recipe the feed tests use).
  struct FreshWorld {
    store::LoadedWorld full;
    std::vector<store::LoadedWorld> shards;
    std::vector<feed::WorldDelta> deltas;
  };
  static const FreshWorld fresh = [] {
    FreshWorld f;
    const std::string path = testutil::unique_temp_path("cluster_split_fresh.scw");
    sim::World world(sim::small_test_config());
    world.run();
    store::save_world(world, path, nullptr, "small");
    f.full = store::load_world(path);
    const ShardPlan fresh_plan(kShards);
    for (unsigned k = 0; k < kShards; ++k) {
      f.shards.push_back(shard_world(f.full, fresh_plan, k));
    }
    f.deltas = feed::extend_world(f.full.meta, 2, 1);
    return f;
  }();
  const auto& w = fresh;
  const ShardPlan plan(kShards);
  const auto& deltas = w.deltas;
  ASSERT_EQ(deltas.size(), 2u);

  // Shard-archive log sizes: the base the first routed delta must extend.
  std::vector<std::map<std::uint64_t, std::uint64_t>> base_sizes(kShards);
  for (unsigned k = 0; k < kShards; ++k) {
    for (const auto& log : w.shards[k].ct_logs.logs()) {
      base_sizes[k][log.id()] = log.entries().size();
    }
  }

  DeltaSplitter splitter(w.full, plan);
  std::vector<std::map<std::uint64_t, std::uint64_t>> expected = base_sizes;
  for (const auto& delta : deltas) {
    const auto routed = splitter.split(delta);
    ASSERT_EQ(routed.size(), kShards);

    for (unsigned k = 0; k < kShards; ++k) {
      // Bound to the SHARD archive's lineage, not the full world's.
      EXPECT_EQ(routed[k].meta.base_world_id,
                feed::world_id(w.shards[k].meta));
      EXPECT_NE(routed[k].meta.base_world_id, feed::world_id(w.full.meta));
      EXPECT_EQ(routed[k].meta.from_day, delta.meta.from_day);
      EXPECT_EQ(routed[k].meta.to_day, delta.meta.to_day);

      // Every DNS day replicates (filtered) so shard day chains never gap.
      ASSERT_EQ(routed[k].adns.size(), delta.adns.size());
      for (std::size_t d = 0; d < delta.adns.size(); ++d) {
        EXPECT_EQ(routed[k].adns[d].date, delta.adns[d].date);
        for (const auto& [domain, records] : routed[k].adns[d].records) {
          EXPECT_EQ(plan.shard_for_domain(domain), k);
        }
      }
      for (const auto& event : routed[k].registrations) {
        EXPECT_EQ(plan.shard_for_domain(event.domain), k);
      }

      // Entry indices are shard-local and dense: each log delta continues
      // exactly where that shard's log currently ends.
      for (const auto& log_delta : routed[k].ct) {
        EXPECT_EQ(log_delta.base_entry_count, expected[k][log_delta.log_id]);
        for (std::size_t i = 0; i < log_delta.entries.size(); ++i) {
          EXPECT_EQ(log_delta.entries[i].index,
                    log_delta.base_entry_count + i);
        }
        expected[k][log_delta.log_id] += log_delta.entries.size();
      }
    }

    // Each delta CT entry replicates to exactly its plan shards.
    for (const auto& log_delta : delta.ct) {
      for (const auto& entry : log_delta.entries) {
        const auto shards = plan.shards_for_certificate(entry.certificate);
        for (unsigned k = 0; k < kShards; ++k) {
          const bool should_hold =
              std::find(shards.begin(), shards.end(), k) != shards.end();
          bool holds = false;
          for (const auto& routed_log : routed[k].ct) {
            if (routed_log.log_id != log_delta.log_id) continue;
            for (const auto& routed_entry : routed_log.entries) {
              if (entry_key(log_delta.log_id, routed_entry) ==
                  entry_key(log_delta.log_id, entry)) {
                holds = true;
              }
            }
          }
          EXPECT_EQ(holds, should_hold) << "shard " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace stalecert::cluster
