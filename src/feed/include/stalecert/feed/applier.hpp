#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "stalecert/core/detectors.hpp"
#include "stalecert/feed/delta.hpp"
#include "stalecert/query/index.hpp"
#include "stalecert/store/archive.hpp"

namespace stalecert::obs {
class PipelineObserver;
}

namespace stalecert::feed {

/// Applies .scwd deltas to a live serving state: holds the accumulated
/// world datasets plus the current StalenessIndex snapshot, and for each
/// delta runs the three staleness detectors over ONLY the delta records
/// joined against the base — new revocations against existing certificates
/// by (AKI, serial), new registry creation dates against overlapping
/// validity windows, new delegation departures against managed
/// certificates — then folds the result into a successor snapshot via
/// StalenessIndex::with_patch(). Query answers on the successor are
/// equivalent to a from-scratch pipeline over the extended world (the
/// differential test in tests/feed pins this).
///
/// Rare events the incremental path cannot express as an append (a
/// precertificate in the base corpus replaced by its issued certificate,
/// an FQDN newly crossing the anomaly threshold, a revocation re-observed
/// with a different date) fall back to a full pipeline rebuild over the
/// accumulated world — still correct, just not fast; rebuilds() counts
/// them.
///
/// Thread model: apply() mutates the applier and must be externally
/// serialized (one ingest at a time); the returned snapshots are immutable
/// and safe to serve from any number of reader threads.
class DeltaApplier {
 public:
  /// Takes ownership of the loaded base world; `base_index` must have been
  /// built from exactly that world (from_archive of the same file, or an
  /// equivalent run_pipeline + StalenessIndex build).
  DeltaApplier(store::LoadedWorld base,
               std::shared_ptr<const query::StalenessIndex> base_index,
               obs::PipelineObserver* observer = nullptr);

  struct ApplyResult {
    std::shared_ptr<const query::StalenessIndex> index;
    std::uint64_t new_certificates = 0;
    std::uint64_t new_stale_records = 0;
    /// True when the delta hit an incremental blind spot and the pipeline
    /// was re-run from the accumulated world instead of patched.
    bool rebuilt = false;
  };

  /// Validates and applies one delta, returning the successor snapshot
  /// (also retained as index()). The successor shares every storage level
  /// of the current snapshot and adds one built from the delta alone.
  /// Validation failures throw DeltaMismatchError / DeltaSequenceError
  /// BEFORE any state changes, so the applier keeps serving its current
  /// snapshot afterwards. Takes the delta by value: its records move into
  /// the accumulated world.
  ApplyResult apply(WorldDelta delta);

  [[nodiscard]] const std::shared_ptr<const query::StalenessIndex>& index()
      const {
    return index_;
  }
  /// Last day covered by the applied data (base end before any apply()).
  [[nodiscard]] util::Date horizon() const { return world_.meta.end; }
  [[nodiscard]] std::uint64_t base_world_id() const { return base_world_id_; }
  [[nodiscard]] std::uint64_t deltas_applied() const { return deltas_applied_; }
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }
  /// The accumulated world (base + every applied delta).
  [[nodiscard]] const store::LoadedWorld& world() const { return world_; }

 private:
  /// How collect() resolved one dedup fingerprint.
  struct CollectState {
    bool precert = false;   // the kept form is (still) a precertificate
    bool dropped = false;   // removed by the anomalous-FQDN filter
  };

  /// (Re)derives every join structure from world_ + index_ — at
  /// construction and after a rebuild.
  void rebuild_state();
  void validate(const WorldDelta& delta) const;
  /// Moves the delta's records into world_ (runs only after validate()).
  void commit(WorldDelta delta);
  /// Full pipeline re-run over the accumulated world (the fallback path).
  ApplyResult rebuild();

  store::LoadedWorld world_;
  std::shared_ptr<const query::StalenessIndex> index_;
  obs::PipelineObserver* observer_;
  std::uint64_t base_world_id_ = 0;
  std::uint64_t deltas_applied_ = 0;
  std::uint64_t rebuilds_ = 0;

  // --- Replayed collect() bookkeeping (dedup + anomaly filter) ---
  std::unordered_map<std::string, CollectState> dedup_;  // binary digest key
  std::unordered_map<std::string, std::uint64_t> fqdn_counts_;
  std::unordered_set<std::string> anomalous_;
  ct::CollectStats collect_stats_;

  // --- Revocation join state ---
  /// Binary (AKI || serial) key -> corpus indices carrying that key.
  std::unordered_map<std::string, std::vector<std::size_t>> key_to_certs_;
  std::unordered_set<std::string> revocation_keys_;  // observed (AKI, serial)
  revocation::JoinStats join_stats_;

  // --- Registrant-change join state ---
  /// Re-registration events only (previous creation date observed), in
  /// base-stream order; the map joins new certificates back to old events.
  std::vector<whois::NewRegistration> rereg_events_;
  std::unordered_map<std::string, std::vector<std::size_t>> rereg_by_domain_;

  // --- Managed-departure join state ---
  core::ManagedTlsOptions tls_options_;
  bool managed_enabled_ = false;
  /// Every departure event so far, chronological (new certificates must
  /// join against history, not just the newest delta).
  std::vector<core::DepartureEvent> departures_;
  /// The detector's first-event-wins dedup, persisted across deltas.
  std::set<std::pair<std::size_t, std::string>> reported_;
};

}  // namespace stalecert::feed
