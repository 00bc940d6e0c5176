#include "stalecert/core/corpus.hpp"

#include <algorithm>
#include <iterator>
#include <string>
#include <unordered_map>

#include "stalecert/dns/name.hpp"
#include "stalecert/util/error.hpp"
#include "stalecert/util/strings.hpp"

namespace stalecert::core {

/// One immutable range of the corpus: certificates [first, first + n) and
/// the inverted indexes over exactly that range (global indices).
struct CertificateCorpus::Level {
  std::size_t first = 0;
  std::vector<x509::Certificate> certificates;
  std::unordered_map<std::string, std::vector<std::size_t>> e2ld_index;
  std::unordered_map<std::string, std::vector<std::size_t>> fqdn_index;
};

std::string strip_wildcard(const std::string& name) {
  return util::starts_with(name, "*.") ? name.substr(2) : name;
}

CertificateCorpus::CertificateCorpus(std::vector<x509::Certificate> certificates) {
  if (!certificates.empty()) {
    levels_.push_back(build_level(0, std::move(certificates)));
  }
  refresh();
}

std::shared_ptr<const CertificateCorpus::Level> CertificateCorpus::build_level(
    std::size_t first, std::vector<x509::Certificate> certificates) {
  auto level = std::make_shared<Level>();
  level->first = first;
  level->certificates = std::move(certificates);
  for (std::size_t local = 0; local < level->certificates.size(); ++local) {
    const std::size_t i = first + local;
    std::vector<std::string> seen_e2lds;
    for (const auto& raw : level->certificates[local].dns_names()) {
      const std::string name = strip_wildcard(raw);
      auto& fqdn_list = level->fqdn_index[name];
      if (fqdn_list.empty() || fqdn_list.back() != i) fqdn_list.push_back(i);
      if (const auto e2 = dns::e2ld(name)) {
        if (std::find(seen_e2lds.begin(), seen_e2lds.end(), *e2) ==
            seen_e2lds.end()) {
          seen_e2lds.push_back(*e2);
          level->e2ld_index[*e2].push_back(i);
        }
      }
    }
  }
  return level;
}

CertificateCorpus CertificateCorpus::appended(
    std::vector<x509::Certificate> certificates) const {
  if (certificates.empty()) return *this;
  std::vector<std::size_t> sizes;
  sizes.reserve(levels_.size() + 1);
  for (const auto& level : levels_) sizes.push_back(level->certificates.size());
  sizes.push_back(certificates.size());
  const std::size_t start = util::merge_start(sizes);

  // The merged level copies the certificates of the levels it absorbs:
  // published levels are shared with older snapshots and never change.
  std::vector<x509::Certificate> merged;
  const std::size_t first = start < levels_.size() ? levels_[start]->first : size_;
  if (start < levels_.size()) {
    merged.reserve(size_ - first + certificates.size());
    for (std::size_t j = start; j < levels_.size(); ++j) {
      merged.insert(merged.end(), levels_[j]->certificates.begin(),
                    levels_[j]->certificates.end());
    }
    std::move(certificates.begin(), certificates.end(),
              std::back_inserter(merged));
  } else {
    merged = std::move(certificates);
  }

  CertificateCorpus out;
  out.levels_.assign(levels_.begin(),
                     levels_.begin() + static_cast<std::ptrdiff_t>(start));
  out.levels_.push_back(build_level(first, std::move(merged)));
  out.refresh();
  return out;
}

void CertificateCorpus::refresh() {
  chunks_.clear();
  chunks_.reserve(levels_.size());
  size_ = 0;
  for (const auto& level : levels_) {
    chunks_.push_back({level->first, &level->certificates});
    size_ = level->first + level->certificates.size();
  }
}

const x509::Certificate& CertificateCorpus::at(std::size_t index) const {
  if (index >= size_) {
    throw LogicError("CertificateCorpus: index out of range");
  }
  return certificates()[index];
}

std::vector<std::size_t> CertificateCorpus::by_e2ld(const std::string& e2ld) const {
  const std::string lower = util::to_lower(e2ld);
  std::vector<std::size_t> out;
  for (const auto& level : levels_) {
    const auto it = level->e2ld_index.find(lower);
    if (it != level->e2ld_index.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

std::vector<std::size_t> CertificateCorpus::by_fqdn(const std::string& fqdn) const {
  const std::string lower = util::to_lower(fqdn);
  std::vector<std::size_t> out;
  for (const auto& level : levels_) {
    const auto it = level->fqdn_index.find(lower);
    if (it != level->fqdn_index.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

CertificateCorpus::OverlapStats CertificateCorpus::overlap_stats(
    const std::string& e2ld) const {
  OverlapStats stats;
  // Sweep line over validity begin/end events.
  std::vector<std::pair<util::Date, int>> events;
  for (const std::size_t index : by_e2ld(e2ld)) {
    const auto& cert = at(index);
    ++stats.certificates;
    events.emplace_back(cert.not_before(), +1);
    events.emplace_back(cert.not_after(), -1);
  }
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    // Ends sort before begins on the same day (half-open intervals).
    return a.first != b.first ? a.first < b.first : a.second < b.second;
  });
  std::size_t current = 0;
  for (const auto& [date, delta] : events) {
    if (delta > 0) {
      ++current;
      if (current > stats.max_concurrent) {
        stats.max_concurrent = current;
        stats.peak_date = date;
      }
    } else {
      --current;
    }
  }
  return stats;
}

std::vector<std::string> CertificateCorpus::e2lds() const {
  std::size_t total = 0;
  for (const auto& level : levels_) total += level->e2ld_index.size();
  std::vector<std::string> out;
  out.reserve(total);
  for (const auto& level : levels_) {
    for (const auto& [e2ld, indices] : level->e2ld_index) out.push_back(e2ld);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace stalecert::core
