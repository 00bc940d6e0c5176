#include "stalecert/net/timer_wheel.hpp"

#include <algorithm>

namespace stalecert::net {

TimerWheel::TimerWheel(Clock::time_point now, std::chrono::milliseconds tick,
                       std::size_t slots)
    : tick_(tick.count() > 0 ? tick : std::chrono::milliseconds(1)),
      slots_(slots == 0 ? 1 : slots),
      epoch_(now),
      cursor_(0),
      wheel_(slots_) {}

std::uint64_t TimerWheel::tick_of(Clock::time_point t) const {
  if (t <= epoch_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(t - epoch_) /
      tick_);
}

std::uint64_t TimerWheel::add(Clock::time_point deadline,
                              std::function<void()> callback) {
  const std::uint64_t id = next_id_++;
  // An entry hashed into an already-swept tick would wait a whole
  // revolution; pull it forward to the next sweep (it still fires only
  // once its deadline has passed — at worst one tick late).
  std::uint64_t tick = tick_of(deadline);
  if (tick <= cursor_) tick = cursor_ + 1;
  const std::size_t slot = tick % slots_;
  wheel_[slot].push_front(Entry{id, deadline, std::move(callback)});
  index_[id] = {slot, wheel_[slot].begin()};
  if (!soonest_ || deadline < *soonest_) soonest_ = deadline;
  return id;
}

bool TimerWheel::cancel(std::uint64_t id) {
  // An id advance() has already swept into its dispatch batch is no longer
  // in the index, but it has not fired yet — pulling it out of firing_
  // suppresses the callback.
  if (firing_.erase(id) > 0) return true;
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  wheel_[it->second.first].erase(it->second.second);
  index_.erase(it);
  return true;
}

std::size_t TimerWheel::advance(Clock::time_point now) {
  const std::uint64_t target = tick_of(now);
  if (target <= cursor_) return 0;
  // A gap longer than one revolution still only needs each slot swept once.
  const std::uint64_t sweep =
      std::min<std::uint64_t>(target - cursor_, slots_);
  std::vector<std::pair<std::uint64_t, std::function<void()>>> due;
  for (std::uint64_t k = 1; k <= sweep; ++k) {
    Slot& slot = wheel_[(cursor_ + k) % slots_];
    for (auto it = slot.begin(); it != slot.end();) {
      if (it->deadline <= now) {
        due.emplace_back(it->id, std::move(it->callback));
        firing_.insert(it->id);
        index_.erase(it->id);
        it = slot.erase(it);
      } else {
        ++it;  // same slot, a later revolution
      }
    }
  }
  // `now` may fall early in its tick, before deadlines that share it:
  // leave that tick unswept so the next advance() visits its slot again
  // instead of a whole revolution later.
  cursor_ = target - 1;
  if (soonest_ && *soonest_ <= now) soonest_.reset();
  // Fire after the sweep: callbacks may re-enter add()/cancel() freely —
  // including cancelling a sibling entry still waiting in this batch.
  std::size_t fired = 0;
  for (auto& [id, callback] : due) {
    if (firing_.erase(id) == 0) continue;  // cancelled by an earlier callback
    callback();
    ++fired;
  }
  firing_.clear();
  return fired;
}

std::optional<std::chrono::milliseconds> TimerWheel::max_sleep(
    Clock::time_point now) const {
  if (index_.empty()) return std::nullopt;
  if (!soonest_) {
    Clock::time_point best = Clock::time_point::max();
    for (const auto& [id, where] : index_) {
      best = std::min(best, where.second->deadline);
    }
    soonest_ = best;
  }
  if (*soonest_ <= now) return tick_;
  return std::max(
      std::chrono::duration_cast<std::chrono::milliseconds>(*soonest_ - now),
      tick_);
}

}  // namespace stalecert::net
