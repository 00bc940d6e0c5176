#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stalecert/ct/merkle.hpp"
#include "stalecert/util/interval.hpp"
#include "stalecert/x509/certificate.hpp"

namespace stalecert::ct {

/// A signed certificate timestamp handed back to the submitter.
struct SignedCertificateTimestamp {
  std::uint64_t log_id = 0;
  std::uint64_t index = 0;
  util::Date timestamp;
};

/// A signed tree head.
struct SignedTreeHead {
  std::uint64_t log_id = 0;
  std::uint64_t tree_size = 0;
  Digest root_hash{};
  util::Date timestamp;
};

/// One log entry as a monitor would download it.
struct LogEntry {
  std::uint64_t index = 0;
  util::Date timestamp;
  x509::Certificate certificate;
};

/// Which root programs trust a log. The paper collects from logs trusted
/// by Google Chrome or Apple "at some point in time".
struct TrustFlags {
  bool chrome = false;
  bool apple = false;
};

/// An RFC 6962-style certificate transparency log. Temporal shards (the
/// post-2020 deployment model) only accept certificates whose expiry falls
/// in the shard window.
class CtLog {
 public:
  CtLog(std::uint64_t id, std::string name, std::string log_operator,
        TrustFlags trust,
        std::optional<util::DateInterval> expiry_shard = std::nullopt);

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& log_operator() const { return operator_; }
  [[nodiscard]] const TrustFlags& trust() const { return trust_; }
  [[nodiscard]] const std::optional<util::DateInterval>& expiry_shard() const {
    return shard_;
  }

  /// True if the log would accept a certificate (shard window check).
  [[nodiscard]] bool accepts(const x509::Certificate& cert) const;

  /// Appends a certificate; returns its SCT, or nullopt if rejected.
  std::optional<SignedCertificateTimestamp> submit(const x509::Certificate& cert,
                                                   util::Date now);

  /// Re-appends an archived entry (stalecert::store restore path): no shard
  /// check — the entry was accepted when originally submitted — and the
  /// original timestamp is preserved, so the rebuilt log is bit-identical
  /// to the one that was saved. Throws LogicError if `index` is not the
  /// next index (archives store entries in order).
  void restore_entry(std::uint64_t index, util::Date timestamp,
                     x509::Certificate cert);

  [[nodiscard]] std::uint64_t size() const { return tree_.size(); }
  [[nodiscard]] SignedTreeHead sth(util::Date now) const;
  [[nodiscard]] SignedTreeHead sth_at(std::uint64_t tree_size, util::Date now) const;

  [[nodiscard]] std::vector<Digest> inclusion_proof(std::uint64_t index,
                                                    std::uint64_t tree_size) const {
    return tree_.inclusion_proof(index, tree_size);
  }
  [[nodiscard]] std::vector<Digest> consistency_proof(std::uint64_t old_size,
                                                      std::uint64_t new_size) const {
    return tree_.consistency_proof(old_size, new_size);
  }
  [[nodiscard]] Digest leaf_hash_at(std::uint64_t index) const {
    return tree_.leaf(index);
  }

  /// Range download as a monitor would perform ([begin, end) clamped).
  [[nodiscard]] std::vector<LogEntry> get_entries(std::uint64_t begin,
                                                  std::uint64_t end) const;
  [[nodiscard]] const std::vector<LogEntry>& entries() const { return entries_; }

 private:
  std::uint64_t id_;
  std::string name_;
  std::string operator_;
  TrustFlags trust_;
  std::optional<util::DateInterval> shard_;
  MerkleTree tree_;
  std::vector<LogEntry> entries_;
};

}  // namespace stalecert::ct
