// In-memory span recording for traced runs (--trace 1). Spans are taken
// around the benchmark's own calls into each layer, and around the stages
// a layer already reports through obs::PipelineObserver; nothing inside the
// program is instrumented. Written out at exit in the Chrome trace-event
// format world_analyze --trace-json uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "stalecert/obs/observer.hpp"
#include "stalecert/util/mutex.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr std::size_t kNoSpan = SIZE_MAX;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // since the recorder's epoch
  std::int64_t end_ns = 0;
  std::size_t parent = kNoSpan;
  std::uint64_t request_id = 0;  // 0 = not part of a request
  std::uint32_t thread = 0;

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

/// Thread-safe append-only span store. A disabled recorder records nothing
/// and every call returns kNoSpan, so untraced runs pay one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  std::size_t begin(std::string name, std::size_t parent = kNoSpan,
                    std::uint64_t request_id = 0);
  void end(std::size_t span);
  /// Records an already finished span.
  std::size_t add(std::string name, Clock::time_point start,
                  Clock::time_point end, std::size_t parent = kNoSpan,
                  std::uint64_t request_id = 0);

  [[nodiscard]] std::vector<Span> spans() const;
  /// {"traceEvents":[{"name","ph":"X","ts","dur","pid","tid","args"}...]}
  [[nodiscard]] std::string chrome_json() const;

 private:
  [[nodiscard]] std::int64_t offset_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  [[nodiscard]] std::uint32_t thread_number() REQUIRES(mutex_);

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable stalecert::util::Mutex mutex_;
  std::vector<Span> spans_ GUARDED_BY(mutex_);
  std::unordered_map<std::thread::id, std::uint32_t> threads_
      GUARDED_BY(mutex_);
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name,
             std::size_t parent = kNoSpan)
      : recorder_(recorder), id_(recorder.begin(std::move(name), parent)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { recorder_.end(id_); }
  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  std::size_t id_;
};

/// Per span, in ms, the summed durations of its direct children.
std::vector<double> child_ms(const std::vector<Span>& spans);

/// Self time of every span name, in ms: each span's duration minus the
/// durations of its direct children, summed per name.
std::map<std::string, double> self_times_ms(const std::vector<Span>& spans);

/// Turns the stage reports of one layer call (store_load, ct_collect, the
/// detectors, query_index_build, feed_apply, query_index_patch ...) into
/// child spans of a parent set by the caller, and keeps every stage's
/// durations and counters for the per-layer metrics. Stages nest per
/// thread; reports may arrive from any thread (the feed runtime applies
/// deltas on server threads).
class StageRecorder final : public stalecert::obs::PipelineObserver {
 public:
  explicit StageRecorder(SpanRecorder& spans) : spans_(spans) {}

  /// Parent span for stages opened on the calling thread from now on.
  void set_parent(std::size_t parent);

  void on_stage_start(std::string_view stage) override;
  void on_stage_end(std::string_view stage,
                    std::chrono::nanoseconds elapsed) override;
  void on_count(std::string_view stage, std::string_view counter,
                std::uint64_t delta) override;

  /// Every duration reported under `stage`, in ms, in report order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& stage) const;
  /// Sum of `counter` deltas reported under `stage`.
  [[nodiscard]] std::uint64_t counter(const std::string& stage,
                                      const std::string& counter) const;

 private:
  SpanRecorder& spans_;
  mutable stalecert::util::Mutex mutex_;
  std::unordered_map<std::thread::id, std::vector<std::size_t>> open_
      GUARDED_BY(mutex_);
  std::unordered_map<std::thread::id, std::size_t> parents_ GUARDED_BY(mutex_);
  std::map<std::string, std::vector<double>> durations_ GUARDED_BY(mutex_);
  std::map<std::string, std::uint64_t> counters_ GUARDED_BY(mutex_);
};

}  // namespace perfbench
