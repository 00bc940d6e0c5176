#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "stalecert/obs/metrics.hpp"

namespace stalecert::obs {

/// Sliding-window counter: a ring of time-bucketed sub-counters covering
/// the last `horizon` seconds at `bucket_width` resolution. add() is a few
/// relaxed atomics (plus one CAS when the bucket rotates into a new time
/// slice), so it is safe and cheap from any number of writer threads; a
/// concurrent rotation may drop a handful of racing increments, which is
/// acceptable for monitoring-grade rates (lifetime counters stay exact).
///
/// All time-taking methods accept an explicit `now` so tests can drive the
/// clock deterministically; production callers use the default.
class WindowedCounter {
 public:
  using Clock = std::chrono::steady_clock;

  /// `created` starts the counter's age (see rate_per_second).
  explicit WindowedCounter(std::chrono::seconds horizon = std::chrono::seconds(300),
                           std::chrono::seconds bucket_width = std::chrono::seconds(5),
                           Clock::time_point created = Clock::now());

  void add(std::uint64_t n = 1, Clock::time_point now = Clock::now());

  /// Events recorded in the trailing `window` (clamped to the horizon).
  [[nodiscard]] std::uint64_t sum(std::chrono::seconds window,
                                  Clock::time_point now = Clock::now()) const;
  /// Events per second over the trailing `window`: sum(window) divided by
  /// min(window, age), so a counter younger than the window reports its
  /// rate since creation rather than diluting it over time it did not
  /// exist. 0 at age 0.
  [[nodiscard]] double rate_per_second(std::chrono::seconds window,
                                       Clock::time_point now = Clock::now()) const;

  [[nodiscard]] std::chrono::seconds horizon() const { return horizon_; }

 private:
  struct Bucket {
    std::atomic<std::int64_t> epoch{-1};  // bucket index since clock epoch
    std::atomic<std::uint64_t> count{0};
  };

  [[nodiscard]] std::int64_t epoch_of(Clock::time_point now) const;

  std::chrono::seconds horizon_;
  std::chrono::seconds width_;
  Clock::time_point created_;
  std::vector<Bucket> buckets_;
};

/// Sliding-window histogram: like WindowedCounter but each time slice holds
/// a full fixed-bucket value histogram (same `le` semantics as
/// HistogramMetric). snapshot(window) folds the live slices into a
/// HistogramSample, so histogram_quantile()/summarize_histogram() work on
/// recent data exactly as they do on lifetime histograms.
class WindowedHistogram {
 public:
  using Clock = std::chrono::steady_clock;

  /// `upper_bounds` must be non-empty and strictly increasing (validated
  /// the same way as HistogramMetric).
  WindowedHistogram(std::vector<double> upper_bounds,
                    std::chrono::seconds horizon = std::chrono::seconds(300),
                    std::chrono::seconds slice_width = std::chrono::seconds(5));

  void observe(double value, Clock::time_point now = Clock::now());

  /// Merged histogram over the trailing `window` (clamped to the horizon).
  /// name/labels/help of the returned sample are left empty.
  [[nodiscard]] HistogramSample snapshot(
      std::chrono::seconds window, Clock::time_point now = Clock::now()) const;

  [[nodiscard]] const std::vector<double>& upper_bounds() const { return bounds_; }
  [[nodiscard]] std::chrono::seconds horizon() const { return horizon_; }

 private:
  struct Slice {
    std::atomic<std::int64_t> epoch{-1};
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts;  // bounds + Inf
    std::atomic<double> sum{0.0};
  };

  [[nodiscard]] std::int64_t epoch_of(Clock::time_point now) const;
  Slice& rotated_slice(std::int64_t epoch);

  std::vector<double> bounds_;
  std::chrono::seconds horizon_;
  std::chrono::seconds width_;
  std::vector<Slice> slices_;
};

}  // namespace stalecert::obs
