// Unit tests for the benchmark's own arithmetic: the percentile rule,
// metric naming, failure counting, the build ledger, and the result line.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(supported_percentile(0), 0.0);
  EXPECT_EQ(supported_percentile(19), 0.0);
  EXPECT_EQ(supported_percentile(20), 50.0);
  EXPECT_EQ(supported_percentile(99), 50.0);
  EXPECT_EQ(supported_percentile(100), 90.0);
  EXPECT_EQ(supported_percentile(999), 90.0);
  EXPECT_EQ(supported_percentile(1000), 99.0);
  EXPECT_EQ(supported_percentile(9999), 99.0);
  EXPECT_EQ(supported_percentile(10'000), 99.9);
  EXPECT_EQ(supported_percentile(100'000), 99.99);
}

TEST(PercentileRule, SummaryReportsSampleCountAndTail) {
  std::vector<double> values(2000);
  std::iota(values.begin(), values.end(), 1.0);  // 1..2000
  const LatencySummary summary = summarize(values);
  EXPECT_EQ(summary.samples, 2000u);
  EXPECT_EQ(summary.p50, 1000.0);
  EXPECT_EQ(summary.p99, 1980.0);
  EXPECT_EQ(summary.tail_percentile, 99.0);
  EXPECT_EQ(summary.tail, 1980.0);
}

TEST(PercentileRule, NearestRankQuantiles) {
  const std::vector<double> sorted = {1, 2, 3, 4};
  EXPECT_EQ(quantile_sorted(sorted, 0.0), 1.0);
  EXPECT_EQ(quantile_sorted(sorted, 0.5), 2.0);
  EXPECT_EQ(quantile_sorted(sorted, 0.51), 3.0);
  EXPECT_EQ(quantile_sorted(sorted, 1.0), 4.0);
  EXPECT_EQ(quantile_sorted({}, 0.5), 0.0);
  EXPECT_EQ(median({5, 1, 3}), 3.0);
}

TEST(PercentileRule, WindowedQuantileSkipsThinWindowsAndStalls) {
  // Four 1 s windows of 1000 samples; window 2 holds a stall.
  std::vector<double> times;
  std::vector<double> values;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 1000; ++i) {
      times.push_back(w + i / 1000.0);
      values.push_back(w == 2 ? 5000.0 : static_cast<double>(i % 100 + w));
    }
  }
  // A fifth window with too few samples for a p99 is ignored.
  times.push_back(4.5);
  values.push_back(1e9);
  // Per-window p99s: 98, 99, 5000, 101.
  EXPECT_EQ(windowed_quantile(times, values, 1.0, 0.99), 99.0);
  EXPECT_EQ(windowed_quantile(times, values, 1.0, 0.99, 0.25), 98.0);
  EXPECT_EQ(windowed_quantile(times, values, 1.0, 0.99, 1.0), 5000.0);
  EXPECT_EQ(windowed_quantile({}, {}, 1.0, 0.99), 0.0);
}

TEST(MetricNames, AcceptsTheBenchmarkAlphabetOnly) {
  EXPECT_TRUE(valid_metric_name("read_p99_us"));
  EXPECT_TRUE(valid_metric_name("query.lookup_ns.stale"));
  EXPECT_TRUE(valid_metric_name("9-lives"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("query.lookup_ns.{stale}"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));

  EXPECT_TRUE(valid_unit("ms"));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("MB/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("µs"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(MetricNames, SetRejectsInvalidAndRepeatedNames) {
  MetricSet metrics;
  metrics.add("setup_s", 1.5, "s");
  EXPECT_THROW(metrics.add("setup_s", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(metrics.add("bad name", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(metrics.add("ok", 2.0, "bad unit"), std::invalid_argument);
  EXPECT_THROW(metrics.add("nan", std::nan(""), "s"), std::invalid_argument);
  EXPECT_TRUE(metrics.has("setup_s"));
  EXPECT_FALSE(metrics.has("ok"));
}

TEST(FailureCounting, FailuresCountAgainstAttempts) {
  Tally tally;
  EXPECT_EQ(tally.failed_ratio(), 0.0);
  tally.add(true);
  tally.add(false);
  tally.add(true);
  tally.add(true);
  EXPECT_EQ(tally.attempted, 4u);
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_EQ(tally.failed_ratio(), 0.25);
  Tally other;
  other.add(false);
  tally += other;
  EXPECT_EQ(tally.attempted, 5u);
  EXPECT_EQ(tally.failed, 2u);
}

TEST(Ledger, UnattributedIsTotalMinusLayerSum) {
  Ledger ledger;
  ledger.total_ms = 100.0;
  ledger.layers_ms = {{"store_load", 55.0}, {"ct_collect", 30.0},
                      {"query_index_build", 10.0}};
  EXPECT_DOUBLE_EQ(ledger.attributed_ms(), 95.0);
  EXPECT_DOUBLE_EQ(ledger.unattributed_ms(), 5.0);
}

TEST(Ledger, SelfTimeSubtractsDirectChildren) {
  std::vector<Span> spans(3);
  spans[0] = {"build", 0, 100'000'000, kNoSpan, 0, 1};
  spans[1] = {"pipeline", 10'000'000, 70'000'000, 0, 0, 1};
  spans[2] = {"ct_collect", 20'000'000, 50'000'000, 1, 0, 1};
  const auto self = self_times_ms(spans);
  EXPECT_DOUBLE_EQ(self.at("build"), 40.0);
  EXPECT_DOUBLE_EQ(self.at("pipeline"), 30.0);
  EXPECT_DOUBLE_EQ(self.at("ct_collect"), 30.0);
}

TEST(ResultLine, HasExactlyTheResultKeys) {
  MetricSet metrics;
  metrics.add("latency_ms", 1.25, "ms");
  Tally tally;
  tally.add(true);
  EXPECT_EQ(result_line(true, tally, metrics),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}}}");
  EXPECT_EQ(format_number(0.1), "0.1");
  EXPECT_EQ(format_number(123456.789), "123456.789");
}

}  // namespace
}  // namespace perfbench
