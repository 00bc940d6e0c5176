#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace stalecert::net {

/// Hashed timing wheel: deadlines hash into `slots` buckets of `tick`
/// granularity; advance() sweeps only the slots the clock has passed and
/// fires the entries whose deadline arrived (entries hashed into a swept
/// slot from a later revolution stay put for the next pass). add, cancel
/// and the per-entry work in advance are O(1); firing precision is one
/// tick. Deliberately single-threaded: every EventLoop owns one wheel and
/// touches it only from its loop thread.
class TimerWheel {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TimerWheel(Clock::time_point now,
                      std::chrono::milliseconds tick = std::chrono::milliseconds(4),
                      std::size_t slots = 512);

  /// Registers `callback` to fire once `deadline` passes. Deadlines already
  /// in the past fire on the next advance(). Returns a non-zero id.
  std::uint64_t add(Clock::time_point deadline, std::function<void()> callback);

  /// True when the id was still pending (not yet fired or cancelled).
  bool cancel(std::uint64_t id);

  /// Fires every timer whose deadline is <= now; returns how many fired.
  /// Callbacks may add or cancel timers re-entrantly.
  std::size_t advance(Clock::time_point now);

  [[nodiscard]] std::size_t pending() const { return index_.size(); }

  /// How long a run loop may sleep without firing anything late: time to
  /// the earliest pending deadline (never less than one tick — that is the
  /// wheel's precision anyway), nullopt when the wheel is empty.
  [[nodiscard]] std::optional<std::chrono::milliseconds> max_sleep(
      Clock::time_point now) const;

 private:
  struct Entry {
    std::uint64_t id = 0;
    Clock::time_point deadline;
    std::function<void()> callback;
  };
  using Slot = std::list<Entry>;

  [[nodiscard]] std::uint64_t tick_of(Clock::time_point t) const;

  std::chrono::milliseconds tick_;
  std::size_t slots_;
  Clock::time_point epoch_;
  std::uint64_t cursor_;  // ticks since epoch_ fully swept
  std::uint64_t next_id_ = 1;
  std::vector<Slot> wheel_;
  std::unordered_map<std::uint64_t, std::pair<std::size_t, Slot::iterator>>
      index_;
  /// Lower bound on the earliest pending deadline (exact after add,
  /// refreshed lazily in max_sleep once it goes stale).
  mutable std::optional<Clock::time_point> soonest_;
  /// Ids collected as due in the current advance() but not yet fired;
  /// cancel() removes from here too, so a callback cancelling a sibling
  /// timer due in the same sweep really does suppress it.
  std::unordered_set<std::uint64_t> firing_;
};

}  // namespace stalecert::net
