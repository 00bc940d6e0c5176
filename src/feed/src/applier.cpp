#include "stalecert/feed/applier.hpp"

#include <algorithm>

#include "stalecert/core/pipeline.hpp"
#include "stalecert/dns/name.hpp"
#include "stalecert/feed/errors.hpp"
#include "stalecert/feed/format.hpp"
#include "stalecert/obs/observer.hpp"
#include "stalecert/util/strings.hpp"

namespace stalecert::feed {

namespace {

std::string digest_key(const crypto::Digest& digest) {
  return std::string(digest.begin(), digest.end());
}

/// Fixed-width AKI then serial: no two distinct pairs share bytes.
std::string issuer_serial_key(const crypto::Digest& aki,
                              const asn1::Bytes& serial) {
  std::string key(aki.begin(), aki.end());
  key.append(serial.begin(), serial.end());
  return key;
}

/// Distinct e2LDs of a certificate, first-seen name order — the same
/// per-certificate walk CertificateCorpus::index_range performs, so a new
/// certificate joins exactly the events by_e2ld would have joined it to.
std::vector<std::string> cert_e2lds(const x509::Certificate& cert) {
  std::vector<std::string> out;
  for (const auto& raw : cert.dns_names()) {
    if (const auto e2 = dns::e2ld(core::strip_wildcard(raw))) {
      if (std::find(out.begin(), out.end(), *e2) == out.end()) {
        out.push_back(*e2);
      }
    }
  }
  return out;
}

}  // namespace

DeltaApplier::DeltaApplier(
    store::LoadedWorld base,
    std::shared_ptr<const query::StalenessIndex> base_index,
    obs::PipelineObserver* observer)
    : world_(std::move(base)),
      index_(std::move(base_index)),
      observer_(observer),
      base_world_id_(world_id(world_.meta)) {
  if (!index_) throw FeedError("DeltaApplier: base index is null");
  rebuild_state();
}

void DeltaApplier::rebuild_state() {
  const core::CertificateCorpus& corpus = index_->corpus();

  // Replay collect()'s dedup bookkeeping over the stored logs so apply()
  // can continue the funnel where the base run left off. Precertificates
  // and their issued forms share the dedup fingerprint but not a serial,
  // so name counts can be taken at first sight of each fingerprint.
  dedup_.clear();
  fqdn_counts_.clear();
  anomalous_.clear();
  const std::uint64_t max_certs = ct::CollectOptions{}.max_certs_per_fqdn;
  for (const auto& log : world_.ct_logs.logs()) {
    if (!log.trust().chrome && !log.trust().apple) continue;
    for (const auto& entry : log.entries()) {
      const bool precert = entry.certificate.is_precertificate();
      auto [it, inserted] =
          dedup_.try_emplace(digest_key(entry.certificate.dedup_fingerprint()),
                             CollectState{.precert = precert, .dropped = false});
      if (inserted) {
        for (const auto& name : entry.certificate.dns_names()) {
          ++fqdn_counts_[name];
        }
      } else if (it->second.precert && !precert) {
        it->second.precert = false;
      }
    }
  }
  for (const auto& [name, count] : fqdn_counts_) {
    if (count > max_certs) anomalous_.insert(name);
  }
  collect_stats_ = index_->result().collect_stats;
  if (collect_stats_.after_dedup != dedup_.size()) {
    // Free structural sanity check that the index really was built from
    // this world: the replayed dedup funnel must land where the index's
    // recorded funnel did (full equality would re-run the pipeline).
    throw DeltaMismatchError(
        "base index reports " + std::to_string(collect_stats_.after_dedup) +
        " deduplicated certificates but the loaded world yields " +
        std::to_string(dedup_.size()));
  }

  // Revocation join state: which corpus certificates carry each
  // (AKI, serial) key, and which keys have already been observed revoked.
  key_to_certs_.clear();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (const auto is = corpus.at(i).issuer_serial()) {
      key_to_certs_[issuer_serial_key(is->authority_key_id, is->serial)]
          .push_back(i);
    }
  }
  revocation_keys_.clear();
  for (const auto& entry : world_.revocations.entries()) {
    revocation_keys_.insert(
        issuer_serial_key(entry.authority_key_id, entry.serial));
  }
  join_stats_ = index_->result().join_stats;

  // Registrant-change state: the historical re-registration events, keyed
  // the way by_e2ld(event.domain) keys the join.
  rereg_events_ = world_.re_registrations();
  rereg_by_domain_.clear();
  for (std::size_t i = 0; i < rereg_events_.size(); ++i) {
    rereg_by_domain_[util::to_lower(rereg_events_[i].domain)].push_back(i);
  }

  // Managed-departure state: all historical departure events plus the
  // detector's first-event-wins dedup replayed over the base corpus.
  tls_options_.delegation_patterns = world_.meta.delegation_patterns;
  tls_options_.managed_san_pattern = world_.meta.managed_san_pattern;
  managed_enabled_ = !tls_options_.delegation_patterns.empty() &&
                     !tls_options_.managed_san_pattern.empty();
  departures_.clear();
  reported_.clear();
  if (managed_enabled_) {
    departures_ = core::detect_departures(world_.adns, tls_options_);
    for (const auto& event : departures_) {
      const auto e2 = dns::e2ld(event.domain);
      for (const std::size_t index :
           corpus.by_e2ld(e2.value_or(event.domain))) {
        if (core::classify_departure_match(corpus.at(index), event,
                                           tls_options_) ==
            core::DepartureJoinOutcome::kKept) {
          reported_.insert({index, event.domain});
        }
      }
    }
  }
}

void DeltaApplier::validate(const WorldDelta& delta) const {
  if (delta.meta.base_world_id != base_world_id_) {
    throw DeltaMismatchError(
        "delta binds to world id " + std::to_string(delta.meta.base_world_id) +
        " (profile \"" + delta.meta.profile + "\", seed " +
        std::to_string(delta.meta.seed) + "); this applier serves world id " +
        std::to_string(base_world_id_) + " (profile \"" + world_.meta.profile +
        "\", seed " + std::to_string(world_.meta.seed) + ")");
  }
  const util::Date horizon = world_.meta.end;
  if (delta.meta.from_day <= horizon) {
    throw DeltaSequenceError(
        "delta covers " + delta.meta.from_day.to_string() + ".." +
        delta.meta.to_day.to_string() + " but the horizon is already " +
        horizon.to_string() + " (double apply or out-of-order delta)");
  }
  if (delta.meta.from_day > horizon + 1) {
    throw DeltaSequenceError("delta starts " + delta.meta.from_day.to_string() +
                             " but the horizon is " + horizon.to_string() +
                             ": days " + (horizon + 1).to_string() + ".." +
                             (delta.meta.from_day - 1).to_string() +
                             " are missing");
  }
  for (const auto& log_delta : delta.ct) {
    const ct::CtLog* log = nullptr;
    for (const auto& candidate : world_.ct_logs.logs()) {
      if (candidate.id() == log_delta.log_id) {
        log = &candidate;
        break;
      }
    }
    if (log == nullptr) {
      throw DeltaMismatchError("delta references unknown CT log id " +
                               std::to_string(log_delta.log_id));
    }
    if (log->size() != log_delta.base_entry_count) {
      throw DeltaSequenceError(
          "CT log " + log->name() + " has " + std::to_string(log->size()) +
          " entries but the delta expects " +
          std::to_string(log_delta.base_entry_count) + " (wrong base)");
    }
  }
  if (!delta.adns.empty()) {
    const auto last = world_.adns.last_date();
    if (last && delta.adns.front().date <= *last) {
      throw DeltaSequenceError(
          "delta DNS snapshot dated " + delta.adns.front().date.to_string() +
          " is not after the last stored scan day " + last->to_string());
    }
  }
}

DeltaApplier::ApplyResult DeltaApplier::apply(WorldDelta delta) {
  const obs::StageScope scope(observer_, "feed_apply");
  validate(delta);
  // Validation passed: every typed rejection has been thrown. What follows
  // mutates applier state and must run to completion (exceptions below
  // this point would indicate a bug, not a bad delta).

  const std::uint64_t max_certs = ct::CollectOptions{}.max_certs_per_fqdn;
  const core::CertificateCorpus& base_corpus = index_->corpus();
  const std::size_t base_size = base_corpus.size();
  bool needs_rebuild = false;

  // --- CT: continue collect()'s dedup funnel over the delta entries. ---
  struct Pending {
    x509::Certificate cert;  // moved into the new corpus level below
    std::string key;
    bool precert = false;
  };
  std::vector<Pending> pending;
  std::unordered_map<std::string, std::size_t> pending_index;
  for (const auto& log_delta : delta.ct) {
    const ct::CtLog* log = nullptr;
    for (const auto& candidate : world_.ct_logs.logs()) {
      if (candidate.id() == log_delta.log_id) log = &candidate;
    }
    if (!log->trust().chrome && !log->trust().apple) continue;
    for (const auto& entry : log_delta.entries) {
      ++collect_stats_.raw_entries;
      std::string key = digest_key(entry.certificate.dedup_fingerprint());
      if (const auto pit = pending_index.find(key);
          pit != pending_index.end()) {
        x509::Certificate& kept = pending[pit->second].cert;
        if (kept.is_precertificate() &&
            !entry.certificate.is_precertificate()) {
          kept = entry.certificate;  // precert superseded within the delta
          pending[pit->second].precert = false;
        }
        continue;
      }
      if (const auto dit = dedup_.find(key); dit != dedup_.end()) {
        if (dit->second.precert && !entry.certificate.is_precertificate()) {
          // The issued form of a base-corpus precertificate arrived after
          // the day boundary; the base certificate must be REPLACED, which
          // a patch cannot express. (The simulator logs both forms on the
          // same day, so this only fires on hand-crafted inputs.)
          needs_rebuild = true;
        }
        continue;
      }
      pending_index.emplace(key, pending.size());
      pending.push_back({entry.certificate, std::move(key),
                         entry.certificate.is_precertificate()});
      ++collect_stats_.after_dedup;
    }
  }

  // --- Anomaly filter: drop new certificates naming already-anomalous
  // FQDNs; a name newly crossing the threshold invalidates base
  // certificates and forces a rebuild. ---
  std::vector<char> dropped(pending.size(), 0);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const auto names = pending[i].cert.dns_names();
    if (std::any_of(names.begin(), names.end(), [&](const std::string& n) {
          return anomalous_.contains(n);
        })) {
      dropped[i] = 1;
      ++collect_stats_.dropped_certificates;
    }
    for (const auto& name : names) {
      if (++fqdn_counts_[name] > max_certs && !anomalous_.contains(name)) {
        needs_rebuild = true;
      }
    }
  }

  // --- Revocation re-observations that would change a base join. ---
  for (const auto& entry : delta.revocations) {
    if (!revocation_keys_.contains(
            issuer_serial_key(entry.authority_key_id, entry.serial))) {
      continue;
    }
    const auto* existing =
        world_.revocations.lookup(entry.authority_key_id, entry.serial);
    if (existing != nullptr &&
        entry.observation.revocation_date < existing->revocation_date) {
      needs_rebuild = true;  // add() keeps the earliest: base joins change
    }
  }

  if (needs_rebuild) {
    commit(std::move(delta));
    return rebuild();
  }

  // --- Extended corpus: base + surviving new certificates, in one new
  // level that shares every base level. ---
  std::vector<x509::Certificate> appended;
  appended.reserve(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (!dropped[i]) appended.push_back(std::move(pending[i].cert));
  }
  const std::uint64_t new_certificates = appended.size();
  core::CertificateCorpus corpus = base_corpus.appended(std::move(appended));

  // --- Join 1: revocations. New observations against base certificates;
  // new certificates against ALL observations. The two passes are
  // disjoint: a delta never re-emits a key the base store already holds,
  // so a (new cert, new obs) pair is seen exactly once. ---
  revocation::JoinFilters filters;
  filters.min_revocation_date = world_.meta.revocation_cutoff;
  std::vector<core::StaleCertificate> new_all_revoked;
  const auto join_revocation =
      [&](std::size_t cert_index,
          const revocation::RevocationStore::Observation& obs) {
        ++join_stats_.matched;
        switch (core::classify_revocation_match(corpus.at(cert_index), obs,
                                                filters)) {
          case core::RevocationJoinOutcome::kBeforeValid:
            ++join_stats_.dropped_before_valid;
            return;
          case core::RevocationJoinOutcome::kAfterExpiry:
            ++join_stats_.dropped_after_expiry;
            return;
          case core::RevocationJoinOutcome::kBeforeCutoff:
            ++join_stats_.dropped_before_cutoff;
            return;
          case core::RevocationJoinOutcome::kKept:
            break;
        }
        ++join_stats_.kept;
        new_all_revoked.push_back(
            core::make_revoked_stale(cert_index, corpus.at(cert_index), obs));
      };

  std::unordered_map<std::string, std::vector<std::size_t>> new_key_to_certs;
  for (std::size_t i = base_size; i < corpus.size(); ++i) {
    const auto is = corpus.at(i).issuer_serial();
    if (!is) continue;
    const std::string key =
        issuer_serial_key(is->authority_key_id, is->serial);
    new_key_to_certs[key].push_back(i);
    // Base observations joining the new certificate (the store still holds
    // only pre-delta observations at this point).
    if (const auto* obs = world_.revocations.lookup(is->authority_key_id,
                                                    is->serial)) {
      join_revocation(i, *obs);
    }
  }
  for (const auto& entry : delta.revocations) {
    const std::string key =
        issuer_serial_key(entry.authority_key_id, entry.serial);
    if (revocation_keys_.contains(key)) continue;  // harmless re-observation
    if (const auto it = key_to_certs_.find(key); it != key_to_certs_.end()) {
      for (const std::size_t index : it->second) {
        join_revocation(index, entry.observation);
      }
    }
    if (const auto it = new_key_to_certs.find(key);
        it != new_key_to_certs.end()) {
      for (const std::size_t index : it->second) {
        join_revocation(index, entry.observation);
      }
    }
  }

  // --- Join 2: registrant changes. New events against the extended
  // corpus; historical events against new certificates only (historical x
  // base pairs are already in the base result). ---
  std::vector<core::StaleCertificate> new_registrant;
  std::vector<whois::NewRegistration> new_rereg;
  for (const auto& event : delta.registrations) {
    if (event.previous_creation_date) new_rereg.push_back(event);
  }
  for (const auto& event : new_rereg) {
    for (const std::size_t index : corpus.by_e2ld(event.domain)) {
      if (core::registrant_change_hits(corpus.at(index),
                                       event.creation_date)) {
        new_registrant.push_back(
            core::make_registrant_stale(index, event, corpus.at(index)));
      }
    }
  }
  for (std::size_t i = base_size; i < corpus.size(); ++i) {
    for (const auto& e2 : cert_e2lds(corpus.at(i))) {
      const auto it = rereg_by_domain_.find(e2);
      if (it == rereg_by_domain_.end()) continue;
      for (const std::size_t event_index : it->second) {
        const auto& event = rereg_events_[event_index];
        if (core::registrant_change_hits(corpus.at(i), event.creation_date)) {
          new_registrant.push_back(
              core::make_registrant_stale(i, event, corpus.at(i)));
        }
      }
    }
  }

  // --- Join 3: managed-TLS departures. Historical events against new
  // certificates FIRST (they precede the delta's events chronologically,
  // and the first-event-wins dedup must see them in that order), then the
  // delta's events against everything. ---
  std::vector<core::StaleCertificate> new_departure;
  std::vector<core::DepartureEvent> new_events;
  if (managed_enabled_) {
    const dns::DailySnapshot* previous =
        world_.adns.days() > 0 ? &world_.adns.day(world_.adns.days() - 1)
                               : nullptr;
    for (const auto& snapshot : delta.adns) {
      if (previous != nullptr) {
        const auto events =
            core::departures_between(*previous, snapshot, tls_options_);
        new_events.insert(new_events.end(), events.begin(), events.end());
      }
      previous = &snapshot;
    }
    const auto join_departure = [&](const core::DepartureEvent& event,
                                    bool new_certs_only) {
      const auto e2 = dns::e2ld(event.domain);
      for (const std::size_t index :
           corpus.by_e2ld(e2.value_or(event.domain))) {
        if (new_certs_only && index < base_size) continue;
        if (core::classify_departure_match(corpus.at(index), event,
                                           tls_options_) !=
            core::DepartureJoinOutcome::kKept) {
          continue;
        }
        if (!reported_.insert({index, event.domain}).second) continue;
        new_departure.push_back(
            core::make_departure_stale(index, event, corpus.at(index)));
      }
    };
    for (const auto& event : departures_) join_departure(event, true);
    for (const auto& event : new_events) join_departure(event, false);
  }

  // --- Fold into a successor snapshot. ---
  join_stats_.corpus_size = corpus.size();
  const std::uint64_t new_stale_records =
      static_cast<std::uint64_t>(std::count_if(
          new_all_revoked.begin(), new_all_revoked.end(),
          [](const core::StaleCertificate& s) {
            return s.reason == revocation::ReasonCode::kKeyCompromise;
          })) +
      new_registrant.size() + new_departure.size();

  query::IndexPatch patch;
  patch.base_certificates = base_size;
  patch.collect_stats = collect_stats_;
  patch.join_stats = join_stats_;
  patch.new_all_revoked = std::move(new_all_revoked);
  patch.new_registrant_change = std::move(new_registrant);
  patch.new_managed_departure = std::move(new_departure);
  patch.new_end = delta.meta.to_day;

  // Carry the join state forward for the next delta.
  for (std::size_t i = base_size; i < corpus.size(); ++i) {
    if (const auto is = corpus.at(i).issuer_serial()) {
      key_to_certs_[issuer_serial_key(is->authority_key_id, is->serial)]
          .push_back(i);
    }
  }
  for (const auto& entry : delta.revocations) {
    revocation_keys_.insert(
        issuer_serial_key(entry.authority_key_id, entry.serial));
  }
  for (auto& p : pending) {
    dedup_.try_emplace(std::move(p.key),
                       CollectState{.precert = p.precert, .dropped = false});
  }
  for (const auto& event : new_rereg) {
    rereg_by_domain_[util::to_lower(event.domain)].push_back(
        rereg_events_.size());
    rereg_events_.push_back(event);
  }
  departures_.insert(departures_.end(), new_events.begin(), new_events.end());

  patch.corpus = std::move(corpus);
  auto next = index_->with_patch(std::move(patch), observer_);
  commit(std::move(delta));
  index_ = std::move(next);
  ++deltas_applied_;

  if (scope.enabled()) {
    scope.count("new_certificates", new_certificates);
    scope.count("new_stale_records", new_stale_records);
    scope.gauge("horizon_days",
                static_cast<double>(world_.meta.end.days_since_epoch()));
  }
  ApplyResult result;
  result.index = index_;
  result.new_certificates = new_certificates;
  result.new_stale_records = new_stale_records;
  return result;
}

void DeltaApplier::commit(WorldDelta delta) {
  for (auto& log_delta : delta.ct) {
    for (auto& log : world_.ct_logs.logs()) {
      if (log.id() != log_delta.log_id) continue;
      for (auto& entry : log_delta.entries) {
        log.restore_entry(entry.index, entry.timestamp,
                          std::move(entry.certificate));
      }
      break;
    }
  }
  for (const auto& entry : delta.revocations) {
    world_.revocations.add(entry.authority_key_id, entry.serial,
                           entry.observation);
  }
  world_.registrations.insert(
      world_.registrations.end(),
      std::make_move_iterator(delta.registrations.begin()),
      std::make_move_iterator(delta.registrations.end()));
  for (auto& snapshot : delta.adns) world_.adns.add(std::move(snapshot));
  world_.stats = delta.stats;
  world_.meta.end = delta.meta.to_day;
}

DeltaApplier::ApplyResult DeltaApplier::rebuild() {
  ++rebuilds_;
  ++deltas_applied_;
  const std::uint64_t old_certs = index_->corpus().size();
  const std::uint64_t old_records = index_->stale_records().size();

  core::PipelineConfig config;
  config.revocation_cutoff = world_.meta.revocation_cutoff;
  config.delegation_patterns = world_.meta.delegation_patterns;
  config.managed_san_pattern = world_.meta.managed_san_pattern;
  config.observer = observer_;
  core::PipelineResult result =
      core::run_pipeline(world_.ct_logs, world_.revocations,
                         world_.re_registrations(), world_.adns, config);
  index_ = std::make_shared<const query::StalenessIndex>(
      std::move(result), world_.meta, observer_);
  rebuild_state();

  ApplyResult out;
  out.index = index_;
  out.rebuilt = true;
  const std::uint64_t certs = index_->corpus().size();
  const std::uint64_t records = index_->stale_records().size();
  out.new_certificates = certs > old_certs ? certs - old_certs : 0;
  out.new_stale_records = records > old_records ? records - old_records : 0;
  return out;
}

}  // namespace stalecert::feed
