#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "stalecert/core/pipeline.hpp"
#include "stalecert/query/interval_index.hpp"
#include "stalecert/store/format.hpp"
#include "stalecert/util/levels.hpp"

namespace stalecert::obs {
class PipelineObserver;
}

namespace stalecert::query {

struct ShardScope;

/// One detected stale certificate, denormalized for serving: the
/// StaleCertificate fields plus the identifiers a caller needs without
/// chasing the corpus (serial, SPKI).
struct StaleRecord {
  std::uint32_t cert_index = 0;  // into StalenessIndex::corpus()
  core::StaleClass cls = core::StaleClass::kKeyCompromise;
  util::Date event_date;
  util::DateInterval staleness;  // [event, notAfter)
  std::string trigger_domain;
  std::optional<revocation::ReasonCode> reason;
};

/// Answer to revocation_status(serial): the earliest joined revocation of
/// the certificate carrying that serial (ties broken by lower cert index).
struct RevocationStatus {
  std::uint32_t cert_index = 0;
  util::Date revocation_date;
  revocation::ReasonCode reason = revocation::ReasonCode::kUnspecified;

  [[nodiscard]] bool key_compromise() const {
    return reason == revocation::ReasonCode::kKeyCompromise;
  }
};

/// Per-domain aggregate over every stale record endangering that domain.
struct DomainSummary {
  std::string domain;  // normalized (lowercased, wildcard stripped)
  /// Corpus certificates whose SAN/CN set names the domain exactly.
  std::uint64_t certificates = 0;
  std::array<std::uint64_t, core::kStaleClassCount> stale_by_class{};
  std::optional<util::Date> earliest_event;
  /// Exclusive end of the last staleness window touching the domain.
  std::optional<util::Date> latest_staleness_end;

  [[nodiscard]] std::uint64_t stale_total() const {
    std::uint64_t total = 0;
    for (const auto n : stale_by_class) total += n;
    return total;
  }
};

/// The incremental-ingest unit produced by feed::DeltaApplier: the fully
/// extended corpus plus ONLY the stale records and revocation joins the
/// delta introduced. StalenessIndex::with_patch() folds one of these into
/// a base snapshot, producing a new immutable snapshot whose query answers
/// match a from-scratch pipeline run over the extended world.
struct IndexPatch {
  /// The extended corpus (base certificates in base order, delta
  /// certificates appended), from CertificateCorpus::appended, so it
  /// shares the base corpus's levels.
  core::CertificateCorpus corpus;
  /// Size of the base corpus this patch extends; with_patch() refuses a
  /// patch built against a different base.
  std::size_t base_certificates = 0;
  /// Cumulative CT collection funnel over the extended world.
  ct::CollectStats collect_stats;
  /// Cumulative revocation-join funnel over the extended world.
  revocation::JoinStats join_stats;
  /// New serial-join matches (all revocation reasons). The kKeyCompromise
  /// subset becomes new kKeyCompromise-class stale records.
  std::vector<core::StaleCertificate> new_all_revoked;
  std::vector<core::StaleCertificate> new_registrant_change;
  std::vector<core::StaleCertificate> new_managed_departure;
  /// Last day the delta covers: becomes meta().end of the new snapshot.
  util::Date new_end;
};

/// What a snapshot keeps of the pipeline runs behind it besides its
/// levels: the cumulative CT and revocation-join funnels. The detector
/// output itself lives in the levels as StaleRecords.
struct PipelineFunnels {
  ct::CollectStats collect_stats;
  revocation::JoinStats join_stats;
};

/// Immutable, fully indexed snapshot of one pipeline run, built for
/// point-lookup serving: hash indexes FQDN -> certificates and SPKI ->
/// certificates, a sorted interval index over staleness windows for
/// point-in-time and date-range queries, per-StaleClass views, and a
/// serial -> revocation join. Every query answers without scanning the
/// corpus; the differential test (tests/query/differential_test.cpp) pins
/// each one against a naive linear scan.
///
/// Instances are immutable after construction, so a std::shared_ptr<const
/// StalenessIndex> can be shared across serving threads and hot-swapped
/// atomically (see SnapshotCell in service.hpp).
///
/// Storage is a short list of immutable, reference-counted levels, like
/// the corpus it serves (util::merge_start has the merge rule). Each level
/// indexes one certificate range and one stale-record range, by global
/// index. A from-scratch build is one level; with_patch() shares every
/// level of its base and adds one for the delta. Every query decomposes
/// over levels: index lists concatenate in level order (so they stay
/// ascending), counts sum, and revocation_status() keeps the earliest
/// date, then the lowest certificate index.
class StalenessIndex {
 public:
  /// Builds every index from a finished pipeline run. `meta` carries the
  /// provenance (profile, seed, window) the summary endpoints report. A
  /// non-null observer receives record/entry counts and wall-clock under
  /// the stage name "query_index_build".
  StalenessIndex(core::PipelineResult result, store::ArchiveMeta meta,
                 obs::PipelineObserver* observer = nullptr);

  /// One-call serving snapshot from a .scw archive: load, run the pipeline
  /// with the archive's own posture (cutoff, delegation patterns), index.
  [[nodiscard]] static std::shared_ptr<const StalenessIndex> from_archive(
      const std::string& path, obs::PipelineObserver* observer = nullptr);

  /// Shard-scoped variant: the loaded world is narrowed through
  /// apply_shard_filter (no-op on a pre-split shard archive) before the
  /// pipeline runs, and the scope's ownership predicate is installed so
  /// owned_stats() attributes each global statistic to exactly one shard.
  [[nodiscard]] static std::shared_ptr<const StalenessIndex> from_archive(
      const std::string& path, const ShardScope& scope,
      obs::PipelineObserver* observer = nullptr);

  /// Builds the successor snapshot for one applied delta. It shares every
  /// level of this snapshot and adds one level built from the delta's
  /// certificates and records only, then merges the newest levels per the
  /// rule; stats() and owned_stats() update from the new level alone. The
  /// base snapshot is untouched; in-flight queries keep their shared_ptr.
  /// Reports under the obs stage name "query_index_patch". Throws
  /// LogicError if the patch was built against a different base corpus.
  [[nodiscard]] std::shared_ptr<const StalenessIndex> with_patch(
      IndexPatch patch, obs::PipelineObserver* observer = nullptr) const;

  /// How many deltas were folded in since the from-scratch build (0 for a
  /// freshly constructed or from_archive snapshot).
  [[nodiscard]] std::uint64_t patch_generation() const {
    return patch_generation_;
  }

  [[nodiscard]] const store::ArchiveMeta& meta() const { return meta_; }
  /// The cumulative funnels of the pipeline run(s) this snapshot serves —
  /// the feed layer continues them when building patches.
  [[nodiscard]] const PipelineFunnels& result() const { return funnels_; }
  [[nodiscard]] const core::CertificateCorpus& corpus() const {
    return corpus_;
  }
  /// Every stale record in index order (range-for, size(), operator[]).
  [[nodiscard]] util::LevelView<StaleRecord> stale_records() const {
    return {record_chunks_, stats_.stale_records};
  }
  [[nodiscard]] const StaleRecord& record(std::uint32_t index) const;
  /// Record indices of one stale class, ascending.
  [[nodiscard]] std::vector<std::uint32_t> of_class(core::StaleClass cls) const;
  /// Number of storage levels (1 after a from-scratch build).
  [[nodiscard]] std::size_t level_count() const { return levels_.size(); }

  // --- Point lookups (all O(1) hash probes or O(log n + k)) ---

  /// Corpus indices of certificates naming the FQDN exactly (after
  /// lowercasing and wildcard stripping), ascending.
  [[nodiscard]] std::vector<std::uint32_t> certs_for_fqdn(
      const std::string& fqdn) const;
  /// Corpus indices of certificates embedding the key with this SPKI
  /// SHA-256 fingerprint (lowercase hex), ascending. The custody question:
  /// every certificate here shares one private key.
  [[nodiscard]] std::vector<std::uint32_t> certs_for_key(
      const std::string& spki_hex) const;

  /// Stale records endangering `domain` whose staleness window contains
  /// `date`. A record endangers a domain when the domain is one of the
  /// certificate's at-risk names (every name for key compromise; the names
  /// under the trigger e2LD otherwise) or the trigger domain itself.
  [[nodiscard]] std::vector<std::uint32_t> stale_records_for(
      const std::string& domain, util::Date date) const;
  /// Same, for any overlap with a half-open date range.
  [[nodiscard]] std::vector<std::uint32_t> stale_records_for_range(
      const std::string& domain, const util::DateInterval& range) const;
  [[nodiscard]] bool is_stale(const std::string& domain, util::Date date) const {
    return !stale_records_for(domain, date).empty();
  }

  /// Record indices of every staleness window containing `date`,
  /// optionally restricted to one class — the corpus-wide stabbing query.
  [[nodiscard]] std::vector<std::uint32_t> stale_at(
      util::Date date, std::optional<core::StaleClass> cls = {}) const;

  /// Per-domain aggregate (all dates).
  [[nodiscard]] DomainSummary stale_summary(const std::string& domain) const;

  /// Earliest joined revocation of the certificate with this serial
  /// (lowercase hex, no 0x). nullopt when the serial never joined.
  [[nodiscard]] std::optional<RevocationStatus> revocation_status(
      const std::string& serial_hex) const;

  /// Corpus certificates valid on `date` (two binary searches).
  [[nodiscard]] std::size_t valid_cert_count(util::Date date) const;

  struct Stats {
    std::uint64_t certificates = 0;
    std::uint64_t stale_records = 0;
    std::array<std::uint64_t, core::kStaleClassCount> by_class{};
    std::uint64_t distinct_keys = 0;
    std::uint64_t distinct_domains = 0;  // at-risk domain index entries
    std::uint64_t revoked_serials = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Installs a shard ownership predicate (owns(routing_key) == "this
  /// shard is the key's home") and recomputes owned_stats(). Must be
  /// called before the snapshot is shared across threads — from_archive's
  /// shard overload and the feed runtime do so during construction.
  /// Attribution rules (what string is handed to owns()):
  ///   certificate   -> routing_domain of its first SAN/CN name
  ///   stale record  -> routing_domain of its trigger domain
  ///   distinct key  -> the SPKI hex string itself
  ///   revoked serial-> the serial hex string itself
  ///   domain        -> routing_domain of itself
  /// Certificates replicated onto several shards share a first name, and
  /// the shard plan replicates each certificate onto its SPKI's and
  /// serial's home shards, so exactly one shard owns each entity; summing
  /// owned_stats() across a full shard set reproduces the single-node
  /// stats() (differential-tested).
  void set_ownership(std::function<bool(const std::string&)> owns);

  /// Whether set_ownership installed a predicate (i.e. this is one shard
  /// of a partition rather than a whole-world snapshot).
  [[nodiscard]] bool sharded() const { return owns_ != nullptr; }

  /// The slice of stats() this shard is the owner of; equal to stats()
  /// when unsharded. Global summaries sum these across shards without
  /// double-counting replicated certificates.
  [[nodiscard]] const Stats& owned_stats() const { return owned_stats_; }

 private:
  struct Level;
  struct LevelInput;

  /// The one level builder, shared by the from-scratch build, with_patch()
  /// and merges.
  [[nodiscard]] std::shared_ptr<const Level> build_level(
      LevelInput input) const;
  /// Appends `level`: counts what it adds to stats_ and owned_stats_, then
  /// merges the newest levels per util::merge_start.
  void add_level(std::shared_ptr<const Level> level);
  /// Adds to `stats` what `level` contributes on top of the `older`
  /// levels, keeping only entities `owns` accepts when it is set.
  void tally(const Level& level,
             std::span<const std::shared_ptr<const Level>> older,
             const std::function<bool(const std::string&)>& owns,
             Stats& stats) const;
  /// Re-derives the stale-record chunk table from levels_.
  void refresh_chunks();

  core::CertificateCorpus corpus_;
  PipelineFunnels funnels_;
  store::ArchiveMeta meta_;
  std::uint64_t patch_generation_ = 0;
  std::vector<std::shared_ptr<const Level>> levels_;
  std::vector<util::LevelChunk<StaleRecord>> record_chunks_;
  Stats stats_;
  std::function<bool(const std::string&)> owns_;  // null when unsharded
  Stats owned_stats_;
};

/// The at-risk names of one stale certificate (shared with the analyzer's
/// semantics): every SAN/CN name for key compromise, otherwise only the
/// names under the trigger e2LD — plus the trigger domain itself, so e2LD
/// queries hit even when the certificate only names subdomains.
std::vector<std::string> at_risk_domains(const core::CertificateCorpus& corpus,
                                         std::uint32_t cert_index,
                                         core::StaleClass cls,
                                         const std::string& trigger_domain);

/// Serving-side domain normalization: lowercase + single wildcard strip.
std::string normalize_domain(const std::string& domain);

}  // namespace stalecert::query
