// TimerWheel: deadlines are driven with an artificial clock, so these
// tests are deterministic — no sleeping, no wall-clock flakiness.
#include "stalecert/net/timer_wheel.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

namespace stalecert::net {
namespace {

using namespace std::chrono_literals;
using Clock = TimerWheel::Clock;

TEST(TimerWheelTest, FiresAtDeadlineNotBefore) {
  const Clock::time_point start = Clock::now();
  TimerWheel wheel(start);
  int fired = 0;
  wheel.add(start + 100ms, [&] { ++fired; });
  EXPECT_EQ(wheel.advance(start + 50ms), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(wheel.advance(start + 100ms), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.pending(), 0u);
  // Already fired: advancing further does nothing.
  EXPECT_EQ(wheel.advance(start + 200ms), 0u);
}

TEST(TimerWheelTest, DeadlineLaterInTheSweptTickStillFiresNextAdvance) {
  // An advance() early in a 4 ms tick sweeps that tick's slot before a
  // deadline sharing the tick is due; the next advance() must still fire
  // it, not one revolution (~2 s) later.
  const Clock::time_point start = Clock::now();
  TimerWheel wheel(start);
  int fired = 0;
  wheel.add(start + 301ms, [&] { ++fired; });  // tick 75 spans [300, 304)
  EXPECT_EQ(wheel.advance(start + 300ms), 0u);
  EXPECT_EQ(wheel.advance(start + 302ms), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, CancelPreventsFiring) {
  const Clock::time_point start = Clock::now();
  TimerWheel wheel(start);
  int fired = 0;
  const std::uint64_t id = wheel.add(start + 20ms, [&] { ++fired; });
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id));  // second cancel: already gone
  EXPECT_EQ(wheel.advance(start + 1s), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(TimerWheelTest, FarDeadlineSurvivesAFullRevolution) {
  // 4ms tick x 512 slots = ~2s per revolution; a deadline two revolutions
  // out hashes into a slot that is swept twice before it is due.
  const Clock::time_point start = Clock::now();
  TimerWheel wheel(start);
  int fired = 0;
  wheel.add(start + 5s, [&] { ++fired; });
  EXPECT_EQ(wheel.advance(start + 2s), 0u);
  EXPECT_EQ(wheel.advance(start + 4s), 0u);
  EXPECT_EQ(wheel.advance(start + 5s + 4ms), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, PastDeadlineFiresOnNextAdvance) {
  const Clock::time_point start = Clock::now();
  TimerWheel wheel(start);
  wheel.advance(start + 1s);  // cursor is well past "start" now
  int fired = 0;
  wheel.add(start + 500ms, [&] { ++fired; });  // already in the past
  EXPECT_EQ(wheel.advance(start + 1s + 4ms), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, CallbacksMayAddAndCancelReentrantly) {
  const Clock::time_point start = Clock::now();
  TimerWheel wheel(start);
  std::vector<int> order;
  std::uint64_t victim = 0;
  wheel.add(start + 10ms, [&] {
    order.push_back(1);
    wheel.cancel(victim);                          // cancel a sibling
    wheel.add(start + 30ms, [&] { order.push_back(3); });  // add a new one
  });
  victim = wheel.add(start + 20ms, [&] { order.push_back(2); });
  EXPECT_GE(wheel.advance(start + 100ms), 1u);
  wheel.advance(start + 200ms);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(TimerWheelTest, MaxSleepTracksSoonestDeadline) {
  const Clock::time_point start = Clock::now();
  TimerWheel wheel(start);
  EXPECT_FALSE(wheel.max_sleep(start).has_value());  // empty: sleep forever
  wheel.add(start + 500ms, [] {});
  const auto sleep = wheel.max_sleep(start);
  ASSERT_TRUE(sleep.has_value());
  EXPECT_LE(*sleep, 500ms);
  EXPECT_GE(*sleep, 4ms);  // never below one tick
  // A sooner timer tightens the bound.
  wheel.add(start + 40ms, [] {});
  ASSERT_TRUE(wheel.max_sleep(start).has_value());
  EXPECT_LE(*wheel.max_sleep(start), 40ms);
}

}  // namespace
}  // namespace stalecert::net
