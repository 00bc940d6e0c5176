#include "stalecert/obs/window.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "stalecert/obs/quantile.hpp"
#include "stalecert/util/error.hpp"

namespace stalecert::obs {
namespace {

using Clock = WindowedCounter::Clock;
using std::chrono::seconds;

// A fixed, arbitrary origin keeps the tests deterministic: every timestamp
// is an offset from it, so bucket-boundary behaviour is exact.
Clock::time_point origin() {
  return Clock::time_point(seconds(1'000'000));
}

TEST(WindowedCounterTest, SumsWithinWindow) {
  // Created well before the window, so the rate spans the whole window.
  WindowedCounter counter(seconds(60), seconds(5), origin() - seconds(600));
  const auto t0 = origin();
  counter.add(3, t0);
  counter.add(2, t0 + seconds(1));
  EXPECT_EQ(counter.sum(seconds(60), t0 + seconds(1)), 5u);
  EXPECT_DOUBLE_EQ(counter.rate_per_second(seconds(60), t0 + seconds(1)),
                   5.0 / 60.0);
}

TEST(WindowedCounterTest, OldBucketsAgeOut) {
  WindowedCounter counter(seconds(60), seconds(5));
  const auto t0 = origin();
  counter.add(10, t0);
  EXPECT_EQ(counter.sum(seconds(60), t0), 10u);
  // Just inside the horizon the events still count...
  EXPECT_EQ(counter.sum(seconds(60), t0 + seconds(59)), 10u);
  // ...well past it they are gone.
  EXPECT_EQ(counter.sum(seconds(60), t0 + seconds(70)), 0u);
}

TEST(WindowedCounterTest, BucketRotationAtBoundary) {
  WindowedCounter counter(seconds(20), seconds(5));
  const auto t0 = origin();
  counter.add(1, t0);
  // Same 5 s bucket: accumulates.
  counter.add(1, t0 + seconds(4));
  // Next bucket.
  counter.add(1, t0 + seconds(5));
  EXPECT_EQ(counter.sum(seconds(20), t0 + seconds(5)), 3u);

  // Drive the clock far enough that the first bucket's slot is reused; its
  // old contents must not resurface.
  const auto later = t0 + seconds(60);
  counter.add(7, later);
  EXPECT_EQ(counter.sum(seconds(20), later), 7u);
}

TEST(WindowedCounterTest, NarrowWindowSeesOnlyRecentBuckets) {
  WindowedCounter counter(seconds(300), seconds(5));
  const auto t0 = origin();
  counter.add(100, t0);
  counter.add(1, t0 + seconds(100));
  EXPECT_EQ(counter.sum(seconds(30), t0 + seconds(100)), 1u);
  EXPECT_EQ(counter.sum(seconds(300), t0 + seconds(100)), 101u);
}

TEST(WindowedCounterTest, WindowClampedToHorizon) {
  WindowedCounter counter(seconds(20), seconds(5));
  const auto t0 = origin();
  counter.add(4, t0);
  // Asking for more than the horizon cannot resurrect aged-out data.
  EXPECT_EQ(counter.sum(seconds(600), t0 + seconds(2)), 4u);
  EXPECT_EQ(counter.sum(seconds(600), t0 + seconds(100)), 0u);
}

TEST(WindowedCounterTest, YoungCounterDividesByItsAge) {
  // A counter 3 s old that saw 300 events runs at 100/s, not 300/60.
  const auto t0 = origin();
  WindowedCounter counter(seconds(300), seconds(5), t0);
  counter.add(100, t0);
  counter.add(200, t0 + seconds(2));
  EXPECT_DOUBLE_EQ(counter.rate_per_second(seconds(60), t0 + seconds(3)),
                   100.0);
  // Once older than the window, the whole window is the divisor again.
  counter.add(90, t0 + seconds(100));
  EXPECT_DOUBLE_EQ(counter.rate_per_second(seconds(60), t0 + seconds(100)),
                   90.0 / 60.0);
  // At age zero there is no rate to report.
  EXPECT_DOUBLE_EQ(counter.rate_per_second(seconds(60), t0), 0.0);
}

TEST(WindowedHistogramTest, SnapshotWorksWithQuantiles) {
  WindowedHistogram histogram({0.001, 0.01, 0.1, 1.0}, seconds(60), seconds(5));
  const auto t0 = origin();
  for (int i = 0; i < 90; ++i) histogram.observe(0.005, t0);
  for (int i = 0; i < 10; ++i) histogram.observe(0.5, t0);
  const auto sample = histogram.snapshot(seconds(60), t0);
  EXPECT_EQ(sample.count, 100u);
  EXPECT_NEAR(sample.sum, 90 * 0.005 + 10 * 0.5, 1e-9);
  const double p50 = histogram_quantile(sample, 0.50);
  EXPECT_GT(p50, 0.001);
  EXPECT_LE(p50, 0.01);
  const double p99 = histogram_quantile(sample, 0.99);
  EXPECT_GT(p99, 0.1);
  EXPECT_LE(p99, 1.0);
}

TEST(WindowedHistogramTest, SlicesAgeOut) {
  WindowedHistogram histogram({0.001, 0.01, 0.1, 1.0}, seconds(60), seconds(5));
  const auto t0 = origin();
  histogram.observe(0.005, t0);
  EXPECT_EQ(histogram.snapshot(seconds(60), t0).count, 1u);
  EXPECT_EQ(histogram.snapshot(seconds(60), t0 + seconds(120)).count, 0u);
}

// The windowed histogram and the lifetime HistogramMetric must agree on
// quantiles when fed the same values inside one window (same bounds, same
// bucket semantics, same interpolation).
TEST(WindowedHistogramTest, QuantilesAgreeWithLifetimeHistogram) {
  const std::vector<double> bounds = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1};
  WindowedHistogram windowed(bounds, seconds(60), seconds(5));
  HistogramMetric lifetime(bounds);
  const auto t0 = origin();
  const std::vector<double> values = {2e-6, 5e-6, 3e-5,  8e-5, 2e-4,
                                      7e-4, 4e-3, 2e-2, 9e-2, 5e-1};
  for (double v : values) {
    windowed.observe(v, t0);
    lifetime.observe(v);
  }

  HistogramSample lifetime_sample;
  lifetime_sample.upper_bounds = lifetime.upper_bounds();
  lifetime_sample.bucket_counts = lifetime.bucket_counts();
  lifetime_sample.sum = lifetime.sum();
  lifetime_sample.count = lifetime.count();

  const auto windowed_sample = windowed.snapshot(seconds(60), t0);
  ASSERT_EQ(windowed_sample.count, lifetime_sample.count);
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(histogram_quantile(windowed_sample, q),
                     histogram_quantile(lifetime_sample, q))
        << "q=" << q;
  }
  const auto ws = summarize_histogram(windowed_sample);
  const auto ls = summarize_histogram(lifetime_sample);
  EXPECT_DOUBLE_EQ(ws.p50, ls.p50);
  EXPECT_DOUBLE_EQ(ws.p99, ls.p99);
}

TEST(WindowedHistogramTest, RejectsBadBounds) {
  EXPECT_THROW(WindowedHistogram({}), LogicError);
  EXPECT_THROW(WindowedHistogram({1.0, 0.5}), LogicError);
  EXPECT_THROW(WindowedHistogram({1.0, 1.0}), LogicError);
}

// TSan-targeted: concurrent writers on both window types while a reader
// snapshots; rotation CAS must never race into undefined behaviour.
TEST(WindowConcurrencyTest, ConcurrentWritersAndReaders) {
  WindowedCounter counter(seconds(60), seconds(5));
  WindowedHistogram histogram({1e-4, 1e-3, 1e-2}, seconds(60), seconds(5));
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        counter.add(1);
        histogram.observe(1e-3);
      }
    });
  }
  std::thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      (void)counter.sum(seconds(60));
      (void)histogram.snapshot(seconds(60));
    }
  });
  for (auto& writer : writers) writer.join();
  reader.join();
  // All writes land in the current live bucket (no rotation mid-test on any
  // sane scheduler), so nothing should be lost here; allow the documented
  // rotation-race slack anyway rather than flake on a pathological pause.
  EXPECT_LE(counter.sum(seconds(60)), 8u * 2000u);
  EXPECT_GE(counter.sum(seconds(60)), 8u * 2000u - 200u);
  EXPECT_LE(histogram.snapshot(seconds(60)).count, 8u * 2000u);
}

}  // namespace
}  // namespace stalecert::obs
