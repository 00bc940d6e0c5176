#include "stalecert/query/index.hpp"

#include <algorithm>

#include "stalecert/dns/name.hpp"
#include "stalecert/obs/observer.hpp"
#include "stalecert/query/shard.hpp"
#include "stalecert/store/archive.hpp"
#include "stalecert/util/error.hpp"
#include "stalecert/util/hex.hpp"
#include "stalecert/util/strings.hpp"

namespace stalecert::query {

namespace {

void sort_unique(std::vector<std::uint32_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// True when `candidate` should replace `current` as the reported
/// revocation status: earlier revocation wins, ties to the lower index.
bool better_status(const RevocationStatus& candidate,
                   const RevocationStatus& current) {
  if (candidate.revocation_date != current.revocation_date)
    return candidate.revocation_date < current.revocation_date;
  return candidate.cert_index < current.cert_index;
}

}  // namespace

std::string normalize_domain(const std::string& domain) {
  return core::strip_wildcard(util::to_lower(domain));
}

std::vector<std::string> at_risk_domains(const core::CertificateCorpus& corpus,
                                         std::uint32_t cert_index,
                                         core::StaleClass cls,
                                         const std::string& trigger_domain) {
  std::vector<std::string> out;
  for (const auto& raw : corpus.at(cert_index).dns_names()) {
    const std::string name = normalize_domain(raw);
    if (cls == core::StaleClass::kKeyCompromise) {
      out.push_back(name);
      continue;
    }
    const auto e2 = dns::e2ld(name);
    if (e2 && *e2 == trigger_domain) out.push_back(name);
  }
  out.push_back(normalize_domain(trigger_domain));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// One immutable slice of a snapshot: the certificates
/// [first_cert, end_cert) and the stale records first_record.. with every
/// index over exactly those, keyed by global index.
struct StalenessIndex::Level {
  std::uint32_t first_cert = 0;
  std::uint32_t end_cert = 0;
  std::uint32_t first_record = 0;
  std::vector<StaleRecord> records;
  std::array<std::vector<std::uint32_t>, core::kStaleClassCount> by_class;
  std::unordered_map<std::string, std::vector<std::uint32_t>> key_to_certs;
  std::unordered_map<std::string, std::vector<std::uint32_t>> domain_to_records;
  std::unordered_map<std::string, RevocationStatus> serial_to_revocation;
  IntervalIndex staleness_intervals;           // payload = record index
  std::vector<std::int64_t> validity_begins;   // sorted days-since-epoch
  std::vector<std::int64_t> validity_ends;

  /// Merge-rule size: certificates plus records.
  [[nodiscard]] std::size_t size() const {
    return end_cert - first_cert + records.size();
  }
  [[nodiscard]] const StaleRecord& record(std::uint32_t index) const {
    return records[index - first_record];
  }
};

/// What build_level() indexes: a certificate range of corpus_, the stale
/// records numbered from first_record, and the revocation joins (serial,
/// status) that arrived with them.
struct StalenessIndex::LevelInput {
  std::uint32_t first_cert = 0;
  std::uint32_t end_cert = 0;
  std::uint32_t first_record = 0;
  std::vector<StaleRecord> records;
  std::vector<std::pair<std::string, RevocationStatus>> revocations;

  /// Appends the class-`cls` records for `stale`, in order.
  void add_records(core::StaleClass cls,
                   const std::vector<core::StaleCertificate>& stale) {
    for (const auto& s : stale) {
      StaleRecord record;
      record.cert_index = static_cast<std::uint32_t>(s.corpus_index);
      record.cls = cls;
      record.event_date = s.event_date;
      record.staleness = s.staleness;
      record.trigger_domain = normalize_domain(s.trigger_domain);
      record.reason = s.reason;
      records.push_back(std::move(record));
    }
  }

  /// Appends one serial join per revocation match (all reasons).
  void add_revocations(const core::CertificateCorpus& corpus,
                       const std::vector<core::StaleCertificate>& revoked) {
    for (const auto& r : revoked) {
      RevocationStatus status;
      status.cert_index = static_cast<std::uint32_t>(r.corpus_index);
      status.revocation_date = r.event_date;
      status.reason = r.reason.value_or(revocation::ReasonCode::kUnspecified);
      revocations.emplace_back(
          util::to_lower(corpus.at(r.corpus_index).serial_hex()), status);
    }
  }
};

std::shared_ptr<const StalenessIndex::Level> StalenessIndex::build_level(
    LevelInput input) const {
  auto level = std::make_shared<Level>();
  level->first_cert = input.first_cert;
  level->end_cert = input.end_cert;
  level->first_record = input.first_record;
  level->records = std::move(input.records);

  std::vector<IntervalIndex::Entry> windows;
  windows.reserve(level->records.size());
  for (std::uint32_t local = 0; local < level->records.size(); ++local) {
    const StaleRecord& record = level->records[local];
    const std::uint32_t i = level->first_record + local;
    level->by_class[static_cast<std::size_t>(record.cls)].push_back(i);
    for (const auto& name : at_risk_domains(corpus_, record.cert_index,
                                            record.cls,
                                            record.trigger_domain)) {
      level->domain_to_records[name].push_back(i);
    }
    windows.push_back({record.staleness, i});
  }
  level->staleness_intervals = IntervalIndex(std::move(windows));
  for (auto& [domain, indices] : level->domain_to_records) sort_unique(indices);

  // SPKI custody index + validity endpoint arrays over the level's range.
  const std::uint32_t count = level->end_cert - level->first_cert;
  level->validity_begins.reserve(count);
  level->validity_ends.reserve(count);
  for (std::uint32_t i = level->first_cert; i < level->end_cert; ++i) {
    const auto& cert = corpus_.at(i);
    level->key_to_certs[cert.subject_key().fingerprint_hex()].push_back(i);
    level->validity_begins.push_back(cert.not_before().days_since_epoch());
    level->validity_ends.push_back(cert.not_after().days_since_epoch());
  }
  std::sort(level->validity_begins.begin(), level->validity_begins.end());
  std::sort(level->validity_ends.begin(), level->validity_ends.end());

  // Serial join, keeping the earliest revocation per serial.
  for (auto& [serial, status] : input.revocations) {
    const auto [it, inserted] =
        level->serial_to_revocation.emplace(std::move(serial), status);
    if (!inserted && better_status(status, it->second)) it->second = status;
  }
  return level;
}

StalenessIndex::StalenessIndex(core::PipelineResult result,
                               store::ArchiveMeta meta,
                               obs::PipelineObserver* observer)
    : corpus_(std::move(result.corpus)),
      funnels_{result.collect_stats, result.revocations.join_stats},
      meta_(std::move(meta)) {
  const obs::StageScope scope(observer, "query_index_build");

  // Denormalize the stale records in deterministic class-major order.
  LevelInput input;
  input.end_cert = static_cast<std::uint32_t>(corpus_.size());
  for (const auto cls : core::kAllStaleClasses) {
    input.add_records(cls, result.of(cls));
  }
  input.add_revocations(corpus_, result.revocations.all_revoked);
  add_level(build_level(std::move(input)));

  if (scope.enabled()) {
    scope.count("certificates", stats_.certificates);
    scope.count("stale_records", stats_.stale_records);
    scope.count("indexed_domains", stats_.distinct_domains);
    scope.count("indexed_keys", stats_.distinct_keys);
    scope.count("revoked_serials", stats_.revoked_serials);
  }
}

void StalenessIndex::tally(const Level& level,
                           std::span<const std::shared_ptr<const Level>> older,
                           const std::function<bool(const std::string&)>& owns,
                           Stats& stats) const {
  const auto known = [&](const auto member, const std::string& key) {
    return std::any_of(older.begin(), older.end(), [&](const auto& l) {
      return ((*l).*member).contains(key);
    });
  };
  for (std::uint32_t i = level.first_cert; i < level.end_cert; ++i) {
    if (!owns) {
      stats.certificates++;
      continue;
    }
    // First-name attribution: every replica of a certificate shares it.
    const auto& names = corpus_.at(i).dns_names();
    if (owns(routing_domain(names.empty() ? std::string{} : names.front()))) {
      stats.certificates++;
    }
  }
  for (const StaleRecord& record : level.records) {
    if (owns && !owns(routing_domain(record.trigger_domain))) continue;
    stats.stale_records++;
    stats.by_class[static_cast<std::size_t>(record.cls)]++;
  }
  // Keys and serials are attributed by hashing the key STRING itself: the
  // shard plan replicates every certificate onto the home shards of its
  // SPKI and serial hex (ShardPlan::shards_for_certificate), so the home
  // shard provably holds the key's full membership and counts it exactly
  // once — a member-certificate anchor would double count whenever a
  // bucket straddles shards (cross-CA serial collisions, shared keys).
  // Each is counted by the oldest level that holds it.
  for (const auto& [key, certs] : level.key_to_certs) {
    if (!known(&Level::key_to_certs, key) && (!owns || owns(key))) {
      stats.distinct_keys++;
    }
  }
  for (const auto& [domain, records] : level.domain_to_records) {
    if (!known(&Level::domain_to_records, domain) &&
        (!owns || owns(routing_domain(domain)))) {
      stats.distinct_domains++;
    }
  }
  for (const auto& [serial, status] : level.serial_to_revocation) {
    if (!known(&Level::serial_to_revocation, serial) && (!owns || owns(serial))) {
      stats.revoked_serials++;
    }
  }
}

void StalenessIndex::add_level(std::shared_ptr<const Level> level) {
  tally(*level, levels_, nullptr, stats_);
  if (owns_) {
    tally(*level, levels_, owns_, owned_stats_);
  } else {
    owned_stats_ = stats_;
  }
  levels_.push_back(std::move(level));

  std::vector<std::size_t> sizes;
  sizes.reserve(levels_.size());
  for (const auto& l : levels_) sizes.push_back(l->size());
  const std::size_t start = util::merge_start(sizes);
  if (start + 1 < levels_.size()) {
    // Rebuild the absorbed levels as one: published levels never change.
    LevelInput merged;
    merged.first_cert = levels_[start]->first_cert;
    merged.end_cert = levels_.back()->end_cert;
    merged.first_record = levels_[start]->first_record;
    for (std::size_t j = start; j < levels_.size(); ++j) {
      const Level& l = *levels_[j];
      merged.records.insert(merged.records.end(), l.records.begin(),
                            l.records.end());
      merged.revocations.insert(merged.revocations.end(),
                                l.serial_to_revocation.begin(),
                                l.serial_to_revocation.end());
    }
    auto rebuilt = build_level(std::move(merged));
    levels_.resize(start);
    levels_.push_back(std::move(rebuilt));
  }
  refresh_chunks();
}

void StalenessIndex::refresh_chunks() {
  record_chunks_.clear();
  record_chunks_.reserve(levels_.size());
  for (const auto& level : levels_) {
    record_chunks_.push_back({level->first_record, &level->records});
  }
}

void StalenessIndex::set_ownership(std::function<bool(const std::string&)> owns) {
  owns_ = std::move(owns);
  if (!owns_) {
    owned_stats_ = stats_;
    return;
  }
  // Tally every level against the ones before it, as the patches did.
  Stats owned;
  for (std::size_t j = 0; j < levels_.size(); ++j) {
    tally(*levels_[j], std::span(levels_).first(j), owns_, owned);
  }
  owned_stats_ = owned;
}

std::shared_ptr<const StalenessIndex> StalenessIndex::with_patch(
    IndexPatch patch, obs::PipelineObserver* observer) const {
  const obs::StageScope scope(observer, "query_index_patch");
  if (patch.base_certificates != corpus_.size()) {
    throw LogicError(
        "StalenessIndex::with_patch: patch extends a corpus of " +
        std::to_string(patch.base_certificates) + " certificates, base has " +
        std::to_string(corpus_.size()));
  }
  if (patch.corpus.size() < patch.base_certificates) {
    throw LogicError("StalenessIndex::with_patch: patched corpus shrank");
  }

  // The successor starts as a copy of this snapshot's handles: every level
  // is shared, nothing is indexed twice.
  auto next = std::make_shared<StalenessIndex>(*this);
  next->corpus_ = std::move(patch.corpus);
  next->funnels_ = {patch.collect_stats, patch.join_stats};
  next->meta_.end = patch.new_end;
  next->patch_generation_ = patch_generation_ + 1;

  // New records are numbered after every base record, class-major, so each
  // per-level index stays ascending and the level order is index order.
  LevelInput input;
  input.first_cert = static_cast<std::uint32_t>(patch.base_certificates);
  input.end_cert = static_cast<std::uint32_t>(next->corpus_.size());
  input.first_record = static_cast<std::uint32_t>(stats_.stale_records);
  std::vector<core::StaleCertificate> new_key_compromise;
  for (const auto& stale : patch.new_all_revoked) {
    if (stale.reason == revocation::ReasonCode::kKeyCompromise) {
      new_key_compromise.push_back(stale);
    }
  }
  input.add_records(core::StaleClass::kKeyCompromise, new_key_compromise);
  input.add_records(core::StaleClass::kRegistrantChange,
                    patch.new_registrant_change);
  input.add_records(core::StaleClass::kManagedTlsDeparture,
                    patch.new_managed_departure);
  input.add_revocations(next->corpus_, patch.new_all_revoked);
  const std::uint64_t new_records = input.records.size();
  if (input.end_cert > input.first_cert || !input.records.empty() ||
      !input.revocations.empty()) {
    next->add_level(next->build_level(std::move(input)));
  }

  if (scope.enabled()) {
    scope.count("new_certificates",
                next->corpus_.size() - patch.base_certificates);
    scope.count("new_stale_records", new_records);
    scope.count("certificates", next->stats_.certificates);
    scope.count("stale_records", next->stats_.stale_records);
    scope.gauge("patch_generation",
                static_cast<double>(next->patch_generation_));
    scope.gauge("levels", static_cast<double>(next->levels_.size()));
  }
  return next;
}

namespace {

std::shared_ptr<StalenessIndex> index_from_world(
    const store::LoadedWorld& world, obs::PipelineObserver* observer) {
  core::PipelineConfig config;
  config.revocation_cutoff = world.meta.revocation_cutoff;
  config.delegation_patterns = world.meta.delegation_patterns;
  config.managed_san_pattern = world.meta.managed_san_pattern;
  config.observer = observer;

  core::PipelineResult result =
      core::run_pipeline(world.ct_logs, world.revocations,
                         world.re_registrations(), world.adns, config);
  return std::make_shared<StalenessIndex>(std::move(result), world.meta,
                                          observer);
}

}  // namespace

std::shared_ptr<const StalenessIndex> StalenessIndex::from_archive(
    const std::string& path, obs::PipelineObserver* observer) {
  return index_from_world(store::load_world(path, observer), observer);
}

std::shared_ptr<const StalenessIndex> StalenessIndex::from_archive(
    const std::string& path, const ShardScope& scope,
    obs::PipelineObserver* observer) {
  const store::LoadedWorld world =
      apply_shard_filter(store::load_world(path, observer), scope);
  std::shared_ptr<StalenessIndex> index = index_from_world(world, observer);
  index->set_ownership(scope.owns);
  return index;
}

const StaleRecord& StalenessIndex::record(std::uint32_t index) const {
  if (index >= stats_.stale_records) {
    throw LogicError("StalenessIndex: record index out of range");
  }
  return stale_records()[index];
}

std::vector<std::uint32_t> StalenessIndex::of_class(core::StaleClass cls) const {
  std::vector<std::uint32_t> out;
  for (const auto& level : levels_) {
    const auto& part = level->by_class[static_cast<std::size_t>(cls)];
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

std::vector<std::uint32_t> StalenessIndex::certs_for_fqdn(
    const std::string& fqdn) const {
  const auto indices = corpus_.by_fqdn(normalize_domain(fqdn));
  std::vector<std::uint32_t> out;
  out.reserve(indices.size());
  for (const auto i : indices) out.push_back(static_cast<std::uint32_t>(i));
  sort_unique(out);
  return out;
}

std::vector<std::uint32_t> StalenessIndex::certs_for_key(
    const std::string& spki_hex) const {
  const std::string lower = util::to_lower(spki_hex);
  std::vector<std::uint32_t> out;
  for (const auto& level : levels_) {
    const auto it = level->key_to_certs.find(lower);
    if (it != level->key_to_certs.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

std::vector<std::uint32_t> StalenessIndex::stale_records_for(
    const std::string& domain, util::Date date) const {
  const std::string normalized = normalize_domain(domain);
  std::vector<std::uint32_t> out;
  for (const auto& level : levels_) {
    const auto it = level->domain_to_records.find(normalized);
    if (it == level->domain_to_records.end()) continue;
    for (const auto i : it->second) {
      if (level->record(i).staleness.contains(date)) out.push_back(i);
    }
  }
  return out;
}

std::vector<std::uint32_t> StalenessIndex::stale_records_for_range(
    const std::string& domain, const util::DateInterval& range) const {
  const std::string normalized = normalize_domain(domain);
  std::vector<std::uint32_t> out;
  for (const auto& level : levels_) {
    const auto it = level->domain_to_records.find(normalized);
    if (it == level->domain_to_records.end()) continue;
    for (const auto i : it->second) {
      if (level->record(i).staleness.overlaps(range)) out.push_back(i);
    }
  }
  return out;
}

std::vector<std::uint32_t> StalenessIndex::stale_at(
    util::Date date, std::optional<core::StaleClass> cls) const {
  std::vector<std::uint32_t> hits;
  for (const auto& level : levels_) {
    std::vector<std::uint32_t> part = level->staleness_intervals.stabbing(date);
    if (cls) {
      std::erase_if(part, [&](std::uint32_t i) {
        return level->record(i).cls != *cls;
      });
    }
    if (hits.empty()) {
      hits = std::move(part);
    } else {
      hits.insert(hits.end(), part.begin(), part.end());
    }
  }
  return hits;
}

DomainSummary StalenessIndex::stale_summary(const std::string& domain) const {
  DomainSummary summary;
  summary.domain = normalize_domain(domain);
  summary.certificates = certs_for_fqdn(summary.domain).size();
  for (const auto& level : levels_) {
    const auto it = level->domain_to_records.find(summary.domain);
    if (it == level->domain_to_records.end()) continue;
    for (const auto i : it->second) {
      const StaleRecord& record = level->record(i);
      summary.stale_by_class[static_cast<std::size_t>(record.cls)]++;
      if (!summary.earliest_event ||
          record.event_date < *summary.earliest_event) {
        summary.earliest_event = record.event_date;
      }
      if (!summary.latest_staleness_end ||
          *summary.latest_staleness_end < record.staleness.end()) {
        summary.latest_staleness_end = record.staleness.end();
      }
    }
  }
  return summary;
}

std::optional<RevocationStatus> StalenessIndex::revocation_status(
    const std::string& serial_hex) const {
  const std::string lower = util::to_lower(serial_hex);
  std::optional<RevocationStatus> best;
  for (const auto& level : levels_) {
    const auto it = level->serial_to_revocation.find(lower);
    if (it == level->serial_to_revocation.end()) continue;
    if (!best || better_status(it->second, *best)) best = it->second;
  }
  return best;
}

std::size_t StalenessIndex::valid_cert_count(util::Date date) const {
  const std::int64_t d = date.days_since_epoch();
  // contains(d) = begin <= d < end, so count = #(begin <= d) - #(end <= d),
  // summed over levels.
  std::size_t count = 0;
  for (const auto& level : levels_) {
    const auto& begins = level->validity_begins;
    const auto& ends = level->validity_ends;
    const auto begun = std::upper_bound(begins.begin(), begins.end(), d) -
                       begins.begin();
    const auto ended =
        std::upper_bound(ends.begin(), ends.end(), d) - ends.begin();
    count += static_cast<std::size_t>(begun - ended);
  }
  return count;
}

}  // namespace stalecert::query
