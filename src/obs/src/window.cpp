#include "stalecert/obs/window.hpp"

#include <algorithm>

#include "stalecert/util/error.hpp"

namespace stalecert::obs {

namespace {

void atomic_add_double(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

std::size_t bucket_count_for(std::chrono::seconds horizon,
                             std::chrono::seconds width) {
  if (width.count() <= 0) throw LogicError("windowed metric: bucket width <= 0");
  if (horizon < width) throw LogicError("windowed metric: horizon < bucket width");
  // One spare bucket so the oldest in-horizon slice is never the one being
  // overwritten by the current time.
  return static_cast<std::size_t>(horizon / width) + 1;
}

}  // namespace

WindowedCounter::WindowedCounter(std::chrono::seconds horizon,
                                 std::chrono::seconds bucket_width,
                                 Clock::time_point created)
    : horizon_(horizon),
      width_(bucket_width),
      created_(created),
      buckets_(bucket_count_for(horizon, bucket_width)) {}

std::int64_t WindowedCounter::epoch_of(Clock::time_point now) const {
  return std::chrono::duration_cast<std::chrono::seconds>(
             now.time_since_epoch()) /
         width_;
}

void WindowedCounter::add(std::uint64_t n, Clock::time_point now) {
  const std::int64_t epoch = epoch_of(now);
  Bucket& bucket = buckets_[static_cast<std::size_t>(epoch) % buckets_.size()];
  std::int64_t seen = bucket.epoch.load(std::memory_order_acquire);
  if (seen != epoch) {
    // First writer into a new time slice resets the stale bucket. A racing
    // add between the exchange and the store can be lost; windows are
    // monitoring-grade, lifetime counters remain the exact record.
    if (bucket.epoch.compare_exchange_strong(seen, epoch,
                                             std::memory_order_acq_rel)) {
      bucket.count.store(0, std::memory_order_release);
    }
  }
  bucket.count.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t WindowedCounter::sum(std::chrono::seconds window,
                                   Clock::time_point now) const {
  const std::int64_t newest = epoch_of(now);
  const auto span = std::min(window, horizon_);
  const std::int64_t oldest = newest - span / width_ + 1;
  std::uint64_t total = 0;
  for (const Bucket& bucket : buckets_) {
    const std::int64_t epoch = bucket.epoch.load(std::memory_order_acquire);
    if (epoch >= oldest && epoch <= newest) {
      total += bucket.count.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double WindowedCounter::rate_per_second(std::chrono::seconds window,
                                        Clock::time_point now) const {
  const auto span = std::min(window, horizon_);
  const double age = std::chrono::duration<double>(now - created_).count();
  const double seconds = std::min(static_cast<double>(span.count()), age);
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(sum(span, now)) / seconds;
}

WindowedHistogram::WindowedHistogram(std::vector<double> upper_bounds,
                                     std::chrono::seconds horizon,
                                     std::chrono::seconds slice_width)
    : bounds_(std::move(upper_bounds)),
      horizon_(horizon),
      width_(slice_width),
      slices_(bucket_count_for(horizon, slice_width)) {
  if (bounds_.empty()) throw LogicError("WindowedHistogram: no buckets");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw LogicError("WindowedHistogram: bounds must be strictly increasing");
  }
  for (Slice& slice : slices_) {
    slice.counts =
        std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  }
}

std::int64_t WindowedHistogram::epoch_of(Clock::time_point now) const {
  return std::chrono::duration_cast<std::chrono::seconds>(
             now.time_since_epoch()) /
         width_;
}

WindowedHistogram::Slice& WindowedHistogram::rotated_slice(std::int64_t epoch) {
  Slice& slice = slices_[static_cast<std::size_t>(epoch) % slices_.size()];
  std::int64_t seen = slice.epoch.load(std::memory_order_acquire);
  if (seen != epoch) {
    if (slice.epoch.compare_exchange_strong(seen, epoch,
                                            std::memory_order_acq_rel)) {
      for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        slice.counts[i].store(0, std::memory_order_release);
      }
      slice.sum.store(0.0, std::memory_order_release);
    }
  }
  return slice;
}

void WindowedHistogram::observe(double value, Clock::time_point now) {
  Slice& slice = rotated_slice(epoch_of(now));
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  slice.counts[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  atomic_add_double(slice.sum, value);
}

HistogramSample WindowedHistogram::snapshot(std::chrono::seconds window,
                                            Clock::time_point now) const {
  const std::int64_t newest = epoch_of(now);
  const auto span = std::min(window, horizon_);
  const std::int64_t oldest = newest - span / width_ + 1;

  HistogramSample sample;
  sample.upper_bounds = bounds_;
  sample.bucket_counts.assign(bounds_.size() + 1, 0);
  for (const Slice& slice : slices_) {
    const std::int64_t epoch = slice.epoch.load(std::memory_order_acquire);
    if (epoch < oldest || epoch > newest) continue;
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
      sample.bucket_counts[i] += slice.counts[i].load(std::memory_order_relaxed);
    }
    sample.sum += slice.sum.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t count : sample.bucket_counts) sample.count += count;
  return sample;
}

}  // namespace stalecert::obs
