#include "stalecert/ct/log.hpp"

#include "stalecert/util/error.hpp"

namespace stalecert::ct {

CtLog::CtLog(std::uint64_t id, std::string name, std::string log_operator,
             TrustFlags trust, std::optional<util::DateInterval> expiry_shard)
    : id_(id),
      name_(std::move(name)),
      operator_(std::move(log_operator)),
      trust_(trust),
      shard_(expiry_shard) {}

bool CtLog::accepts(const x509::Certificate& cert) const {
  if (!shard_) return true;
  // Temporal shards partition by certificate expiry date.
  return shard_->contains(cert.not_after());
}

std::optional<SignedCertificateTimestamp> CtLog::submit(
    const x509::Certificate& cert, util::Date now) {
  if (!accepts(cert)) return std::nullopt;
  const asn1::Bytes der = cert.to_der();
  const std::uint64_t index = tree_.append(der);
  entries_.push_back({index, now, cert});
  return SignedCertificateTimestamp{id_, index, now};
}

void CtLog::restore_entry(std::uint64_t index, util::Date timestamp,
                          x509::Certificate cert) {
  if (index != entries_.size()) {
    throw LogicError("CtLog::restore_entry: index " + std::to_string(index) +
                     " is not the next index " + std::to_string(entries_.size()));
  }
  const asn1::Bytes der = cert.to_der();
  tree_.append(der);
  entries_.push_back({index, timestamp, std::move(cert)});
}

SignedTreeHead CtLog::sth(util::Date now) const { return sth_at(tree_.size(), now); }

SignedTreeHead CtLog::sth_at(std::uint64_t tree_size, util::Date now) const {
  return SignedTreeHead{id_, tree_size, tree_.root_at(tree_size), now};
}

std::vector<LogEntry> CtLog::get_entries(std::uint64_t begin, std::uint64_t end) const {
  if (begin > end) throw LogicError("CtLog::get_entries: begin > end");
  end = std::min<std::uint64_t>(end, entries_.size());
  begin = std::min(begin, end);
  return std::vector<LogEntry>(entries_.begin() + static_cast<std::ptrdiff_t>(begin),
                               entries_.begin() + static_cast<std::ptrdiff_t>(end));
}

}  // namespace stalecert::ct
