// Discrete-event scheduler: ordering, FIFO tie-breaking, cancellation,
// bounded runs — the determinism substrate every experiment relies on.
#include <gtest/gtest.h>

#include <vector>

#include "sftbft/sim/scheduler.hpp"

namespace sftbft::sim {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(300, [&] { order.push_back(3); });
  sched.schedule_at(100, [&] { order.push_back(1); });
  sched.schedule_at(200, [&] { order.push_back(2); });
  sched.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 300);
}

TEST(Scheduler, FifoAmongEqualTimes) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sched.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler sched;
  SimTime fired_at = -1;
  sched.schedule_at(100, [&] {
    sched.schedule_after(50, [&] { fired_at = sched.now(); });
  });
  sched.run_until_idle();
  EXPECT_EQ(fired_at, 150);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  const TimerId id = sched.schedule_at(10, [&] { fired = true; });
  sched.cancel(id);
  sched.run_until_idle();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler sched;
  const TimerId id = sched.schedule_at(10, [] {});
  sched.run_until_idle();
  sched.cancel(id);  // must not crash or affect anything
  EXPECT_EQ(sched.events_processed(), 1u);
}

TEST(Scheduler, CancelInvalidIsNoop) {
  Scheduler sched;
  sched.cancel(kInvalidTimer);
  sched.cancel(12345);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(100, [&] { ++fired; });
  sched.schedule_at(200, [&] { ++fired; });
  sched.schedule_at(301, [&] { ++fired; });
  sched.run_until(300);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now(), 300);  // clock advances even without events
  sched.run_until_idle();
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, RunUntilExecutesEventsAtDeadline) {
  Scheduler sched;
  bool fired = false;
  sched.schedule_at(300, [&] { fired = true; });
  sched.run_until(300);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, RunForAdvancesRelative) {
  Scheduler sched;
  sched.run_for(500);
  EXPECT_EQ(sched.now(), 500);
  sched.run_for(250);
  EXPECT_EQ(sched.now(), 750);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sched.schedule_after(1, recurse);
  };
  sched.schedule_at(0, recurse);
  sched.run_until_idle();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sched.now(), 9);
}

TEST(Scheduler, RunOneReturnsFalseWhenEmpty) {
  Scheduler sched;
  EXPECT_FALSE(sched.run_one());
  sched.schedule_at(5, [] {});
  EXPECT_TRUE(sched.run_one());
  EXPECT_FALSE(sched.run_one());
}

TEST(Scheduler, MaxEventsBoundsRun) {
  Scheduler sched;
  // Self-perpetuating event chain; run_until_idle must stop at the bound.
  std::function<void()> loop = [&] { sched.schedule_after(1, loop); };
  sched.schedule_at(0, loop);
  sched.run_until_idle(100);
  EXPECT_EQ(sched.events_processed(), 100u);
}

TEST(Scheduler, PendingIsExactAcrossCancelBeforeFire) {
  Scheduler sched;
  const TimerId a = sched.schedule_at(10, [] {});
  sched.schedule_at(20, [] {});
  EXPECT_EQ(sched.pending(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 1u);  // the tombstone is not counted
  sched.cancel(a);                 // cancelling twice changes nothing
  EXPECT_EQ(sched.pending(), 1u);
  sched.run_until(15);             // pops the tombstone, runs nothing
  EXPECT_EQ(sched.events_processed(), 0u);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run_until_idle();
  EXPECT_EQ(sched.events_processed(), 1u);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, PendingIsExactAcrossCancelAfterFire) {
  Scheduler sched;
  const TimerId fired = sched.schedule_at(10, [] {});
  sched.schedule_at(20, [] {});
  sched.run_until(10);
  EXPECT_EQ(sched.pending(), 1u);
  sched.cancel(fired);  // already fired: must not un-count the live event
  EXPECT_EQ(sched.pending(), 1u);
  sched.run_until_idle();
  EXPECT_EQ(sched.events_processed(), 2u);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, StaleIdDoesNotTouchAReusedSlot) {
  // A fired or cancelled event's slot is handed to the next event; the old
  // id must not cancel the new occupant.
  Scheduler sched;
  const TimerId cancelled = sched.schedule_at(10, [] {});
  sched.cancel(cancelled);
  int fired = 0;
  const TimerId reuser = sched.schedule_at(10, [&] { ++fired; });
  EXPECT_NE(reuser, cancelled);
  sched.cancel(cancelled);
  sched.run_until(10);
  EXPECT_EQ(fired, 1);

  sched.schedule_at(20, [&] { ++fired; });  // takes the fired event's slot
  sched.cancel(reuser);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run_until_idle();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, CallbackCancelsSameTimeEvent) {
  Scheduler sched;
  std::vector<int> order;
  TimerId victim = kInvalidTimer;
  sched.schedule_at(50, [&] {
    order.push_back(1);
    sched.cancel(victim);
  });
  victim = sched.schedule_at(50, [&] { order.push_back(2); });
  sched.schedule_at(50, [&] { order.push_back(3); });
  EXPECT_EQ(sched.pending(), 3u);
  sched.run_until(50);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sched.events_processed(), 2u);
  EXPECT_EQ(sched.pending(), 0u);
}

}  // namespace
}  // namespace sftbft::sim
