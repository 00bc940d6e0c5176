// Statistics and result rendering shared by every perfbench workload: the
// percentile rule, failure tallies, the build-path ledger, and the metric
// set printed as the benchmark's final JSON line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]) of an ascending vector; 0 when empty.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (copied); 0 when empty.
double median(std::vector<double> values);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that has at
/// least ten samples beyond it; 0 when even the median has fewer.
double supported_percentile(std::size_t samples);

/// A latency sample reduced to its median and its highest supported
/// percentile, with the sample count the percentile rests on.
struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// supported_percentile(samples) and the value at it.
  double tail_percentile = 0.0;
  double tail = 0.0;
};
LatencySummary summarize(std::vector<double> values);

/// Median over consecutive windows of `window_s` of each window's q
/// quantile (q in [0, 1]). `times_s` and `values` are parallel. Windows too
/// small to support q under the percentile rule are skipped; 0 when none
/// qualifies. One stall moves one window, not the result.
double windowed_quantile(const std::vector<double>& times_s,
                         const std::vector<double>& values, double window_s,
                         double q, double across = 0.5);

/// Operations attempted and failed. A failed or refused operation also
/// counts against any latency limit, so callers add it here and nowhere else.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  Tally& operator+=(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    return *this;
  }
  [[nodiscard]] double failed_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// The build path's per-layer times against the end-to-end build time they
/// must add up to; whatever no layer claims is reported as unattributed.
struct Ledger {
  double total_ms = 0.0;
  std::vector<std::pair<std::string, double>> layers_ms;

  [[nodiscard]] double attributed_ms() const;
  [[nodiscard]] double unattributed_ms() const {
    return total_ms - attributed_ms();
  }
};

/// Metric names start with a letter or digit and hold at most 64 letters,
/// digits, '_', '.' and '-'. Units hold at most 16 letters, digits, '_',
/// '/', '%', '.' and '-'.
bool valid_metric_name(std::string_view name);
bool valid_unit(std::string_view unit);

/// Named metrics with units, in insertion order. add() throws
/// std::invalid_argument on an invalid or repeated name or unit.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// Shortest decimal form that reads back as the same double.
std::string format_number(double value);

/// A quoted, escaped JSON string.
std::string json_string(std::string_view text);

/// The benchmark's final stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
std::string result_line(bool correct, const Tally& tally,
                        const MetricSet& metrics);

/// One JSON object of string fields (the run metadata line).
std::string json_object(const std::map<std::string, std::string>& fields);

}  // namespace perfbench
