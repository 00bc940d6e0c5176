#include "stats.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <map>
#include <stdexcept>

#include "stalecert/net/http.hpp"

namespace perfbench {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

double supported_percentile(std::size_t samples) {
  // Each rung with the share of samples beyond it in parts per 10'000, so
  // the count n * share / 10'000 is exact integer arithmetic.
  static constexpr std::array<std::pair<double, std::uint64_t>, 5> kLadder = {
      {{50.0, 5000}, {90.0, 1000}, {99.0, 100}, {99.9, 10}, {99.99, 1}}};
  double best = 0.0;
  for (const auto& [percentile, beyond_per_10k] : kLadder) {
    if (samples * beyond_per_10k / 10'000 >= 10) best = percentile;
  }
  return best;
}

LatencySummary summarize(std::vector<double> values) {
  LatencySummary summary;
  std::sort(values.begin(), values.end());
  summary.samples = values.size();
  summary.p50 = quantile_sorted(values, 0.50);
  summary.p99 = quantile_sorted(values, 0.99);
  summary.tail_percentile = supported_percentile(values.size());
  summary.tail = quantile_sorted(values, summary.tail_percentile / 100.0);
  return summary;
}

double windowed_quantile(const std::vector<double>& times_s,
                         const std::vector<double>& values, double window_s,
                         double q, double across) {
  std::map<long long, std::vector<double>> windows;
  for (std::size_t i = 0; i < values.size() && i < times_s.size(); ++i) {
    windows[static_cast<long long>(std::floor(times_s[i] / window_s))]
        .push_back(values[i]);
  }
  std::vector<double> per_window;
  for (auto& [index, samples] : windows) {
    if (supported_percentile(samples.size()) < q * 100.0) continue;
    std::sort(samples.begin(), samples.end());
    per_window.push_back(quantile_sorted(samples, q));
  }
  std::sort(per_window.begin(), per_window.end());
  return quantile_sorted(per_window, across);
}

double Ledger::attributed_ms() const {
  double sum = 0.0;
  for (const auto& [name, ms] : layers_ms) sum += ms;
  return sum;
}

namespace {

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: " + name);
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument("invalid unit for " + name + ": " + unit);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for " + name);
  }
  if (has(name)) throw std::invalid_argument("repeated metric name: " + name);
  entries_.push_back({name, {value, unit}});
}

bool MetricSet::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const auto& entry) { return entry.first == name; });
}

std::string format_number(double value) {
  std::array<char, 64> buffer{};
  const auto [end, ec] =
      std::to_chars(buffer.data(), buffer.data() + buffer.size(), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer.data(), end);
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  out += stalecert::net::json_escape(text);
  out += '"';
  return out;
}

std::string result_line(bool correct, const Tally& tally,
                        const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics.entries()) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + format_number(entry.first) +
           ", \"unit\": " + json_string(entry.second) + "}";
  }
  out += "}}";
  return out;
}

std::string json_object(const std::map<std::string, std::string>& fields) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) out += ", ";
    first = false;
    out += json_string(key) + ": " + json_string(value);
  }
  out += "}";
  return out;
}

}  // namespace perfbench
