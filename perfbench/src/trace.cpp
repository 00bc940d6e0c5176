#include "trace.hpp"

#include "stats.hpp"

namespace perfbench {

using stalecert::util::MutexLock;

SpanRecorder::SpanRecorder(bool enabled) : enabled_(enabled) {
  // Reserved up front: a reallocation under the lock would stall whichever
  // generator thread records the next request span.
  if (enabled_) {
    const MutexLock lock(mutex_);
    spans_.reserve(1 << 19);
  }
}

std::uint32_t SpanRecorder::thread_number() {
  const auto [it, inserted] = threads_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(threads_.size() + 1));
  return it->second;
}

std::size_t SpanRecorder::begin(std::string name, std::size_t parent,
                                std::uint64_t request_id) {
  if (!enabled_) return kNoSpan;
  const std::int64_t start = offset_ns(Clock::now());
  const MutexLock lock(mutex_);
  spans_.push_back(Span{std::move(name), start, start, parent, request_id,
                        thread_number()});
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t span) {
  if (!enabled_ || span == kNoSpan) return;
  const std::int64_t end = offset_ns(Clock::now());
  const MutexLock lock(mutex_);
  spans_.at(span).end_ns = end;
}

std::size_t SpanRecorder::add(std::string name, Clock::time_point start,
                              Clock::time_point end, std::size_t parent,
                              std::uint64_t request_id) {
  if (!enabled_) return kNoSpan;
  const MutexLock lock(mutex_);
  spans_.push_back(Span{std::move(name), offset_ns(start), offset_ns(end),
                        parent, request_id, thread_number()});
  return spans_.size() - 1;
}

std::vector<Span> SpanRecorder::spans() const {
  const MutexLock lock(mutex_);
  return spans_;
}

std::string SpanRecorder::chrome_json() const {
  const std::vector<Span> all = spans();
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    if (i > 0) out += ',';
    out += "{\"name\":" + json_string(span.name) +
           ",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":" +
           format_number(static_cast<double>(span.start_ns) / 1e3) +
           ",\"dur\":" +
           format_number(static_cast<double>(span.end_ns - span.start_ns) /
                         1e3) +
           ",\"pid\":1,\"tid\":" + std::to_string(span.thread) +
           ",\"args\":{\"span\":" + std::to_string(i) + ",\"parent\":" +
           (span.parent == kNoSpan ? std::string("null")
                                   : std::to_string(span.parent)) +
           ",\"request_id\":" + std::to_string(span.request_id) + "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::vector<double> child_ms(const std::vector<Span>& spans) {
  std::vector<double> children(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent != kNoSpan && span.parent < spans.size()) {
      children[span.parent] += span.ms();
    }
  }
  return children;
}

std::map<std::string, double> self_times_ms(const std::vector<Span>& spans) {
  const std::vector<double> children = child_ms(spans);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[spans[i].name] += spans[i].ms() - children[i];
  }
  return self;
}

void StageRecorder::set_parent(std::size_t parent) {
  const MutexLock lock(mutex_);
  parents_[std::this_thread::get_id()] = parent;
}

void StageRecorder::on_stage_start(std::string_view stage) {
  std::size_t parent = kNoSpan;
  {
    const MutexLock lock(mutex_);
    const auto& open = open_[std::this_thread::get_id()];
    if (!open.empty()) {
      parent = open.back();
    } else if (const auto it = parents_.find(std::this_thread::get_id());
               it != parents_.end()) {
      parent = it->second;
    }
  }
  const std::size_t span = spans_.begin(std::string(stage), parent);
  const MutexLock lock(mutex_);
  open_[std::this_thread::get_id()].push_back(span);
}

void StageRecorder::on_stage_end(std::string_view stage,
                                 std::chrono::nanoseconds elapsed) {
  std::size_t span = kNoSpan;
  {
    const MutexLock lock(mutex_);
    auto& open = open_[std::this_thread::get_id()];
    if (!open.empty()) {
      span = open.back();
      open.pop_back();
    }
    durations_[std::string(stage)].push_back(
        std::chrono::duration<double, std::milli>(elapsed).count());
  }
  spans_.end(span);
}

void StageRecorder::on_count(std::string_view stage, std::string_view counter,
                             std::uint64_t delta) {
  const MutexLock lock(mutex_);
  counters_[std::string(stage) + "." + std::string(counter)] += delta;
}

std::vector<double> StageRecorder::durations_ms(const std::string& stage) const {
  const MutexLock lock(mutex_);
  const auto it = durations_.find(stage);
  return it == durations_.end() ? std::vector<double>{} : it->second;
}

std::uint64_t StageRecorder::counter(const std::string& stage,
                                     const std::string& counter) const {
  const MutexLock lock(mutex_);
  const auto it = counters_.find(stage + "." + counter);
  return it == counters_.end() ? 0 : it->second;
}

}  // namespace perfbench
