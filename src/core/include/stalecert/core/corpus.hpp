#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stalecert/util/levels.hpp"
#include "stalecert/x509/certificate.hpp"

namespace stalecert::core {

/// An indexed certificate corpus (the deduplicated CT download). Builds
/// e2LD and FQDN inverted indexes once so the detectors' joins are O(1)
/// per event instead of scanning 5B certificates per lookup.
///
/// Storage is a short list of immutable, reference-counted levels (the
/// logarithmic method; merge rule in util::merge_start). Each level holds
/// one contiguous range of certificates and both inverted indexes over
/// that range, keyed by global corpus index. A from-scratch build is one
/// level. appended() shares every level with its source and builds one
/// more, so an incremental ingest costs O(new certificates) plus amortized
/// merges. Copies are cheap and share storage; lookups visit each level in
/// order, so index lists stay ascending.
class CertificateCorpus {
 public:
  CertificateCorpus() = default;
  explicit CertificateCorpus(std::vector<x509::Certificate> certificates);

  /// This corpus extended by `certificates` at indices size().., sharing
  /// every existing level. Answers equal a from-scratch build over the
  /// concatenated certificate list; the incremental-ingest path
  /// (stalecert::feed) relies on that.
  [[nodiscard]] CertificateCorpus appended(
      std::vector<x509::Certificate> certificates) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Every certificate in index order (range-for, size(), operator[]).
  [[nodiscard]] util::LevelView<x509::Certificate> certificates() const {
    return {chunks_, size_};
  }
  [[nodiscard]] const x509::Certificate& at(std::size_t index) const;

  /// Indices of certificates containing any name under the given e2LD.
  [[nodiscard]] std::vector<std::size_t> by_e2ld(const std::string& e2ld) const;
  /// Indices of certificates containing the exact FQDN.
  [[nodiscard]] std::vector<std::size_t> by_fqdn(const std::string& fqdn) const;

  /// All distinct e2LDs present in the corpus.
  [[nodiscard]] std::vector<std::string> e2lds() const;

  /// Temporal-overlap statistics for one e2LD's certificates — §5.2's
  /// cruise-liner observation: "hundreds of temporally-overlapping
  /// certificates per Cloudflare customer domain".
  struct OverlapStats {
    std::size_t certificates = 0;
    /// Maximum number of certificates simultaneously valid for the e2LD.
    std::size_t max_concurrent = 0;
    /// The day the maximum occurs (first such day).
    util::Date peak_date;
  };
  [[nodiscard]] OverlapStats overlap_stats(const std::string& e2ld) const;

  /// Number of storage levels (1 after a from-scratch build).
  [[nodiscard]] std::size_t level_count() const { return levels_.size(); }

 private:
  struct Level;

  /// Builds the level holding `certificates` at global indices first...
  [[nodiscard]] static std::shared_ptr<const Level> build_level(
      std::size_t first, std::vector<x509::Certificate> certificates);
  /// Re-derives size_ and the certificate chunk table from levels_.
  void refresh();

  std::vector<std::shared_ptr<const Level>> levels_;
  std::vector<util::LevelChunk<x509::Certificate>> chunks_;
  std::size_t size_ = 0;
};

/// Strips a single leading wildcard label ("*.foo.com" -> "foo.com") for
/// FQDN accounting.
std::string strip_wildcard(const std::string& name);

}  // namespace stalecert::core
