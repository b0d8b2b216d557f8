#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace hsr::sim {
namespace {

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), TimePoint::max());
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint::from_ns(30), [&] { order.push_back(3); });
  q.schedule(TimePoint::from_ns(10), [&] { order.push_back(1); });
  q.schedule(TimePoint::from_ns(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAmongEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_ns(5);
  for (int i = 0; i < 10; ++i) {
    q.schedule(t, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, PopReportsThatTheEventRan) {
  EventQueue q;
  bool ran = false;
  q.schedule(TimePoint::from_ns(77), [&] { ran = true; });
  EXPECT_EQ(q.next_time(), TimePoint::from_ns(77));
  EXPECT_TRUE(q.pop_and_run());
  EXPECT_TRUE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule(TimePoint::from_ns(10), [&] { ran = true; });
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(q.pop_and_run());  // popped at its time as a no-op
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelIsIdempotent) {
  EventQueue q;
  EventHandle h = q.schedule(TimePoint::from_ns(10), [] {});
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.cancel());
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  EventHandle h = q.schedule(TimePoint::from_ns(10), [] {});
  EXPECT_TRUE(q.pop_and_run());
  EXPECT_FALSE(h.cancel());
}

TEST(EventQueueTest, CancelMiddleEventKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint::from_ns(1), [&] { order.push_back(1); });
  EventHandle mid = q.schedule(TimePoint::from_ns(2), [&] { order.push_back(2); });
  q.schedule(TimePoint::from_ns(3), [&] { order.push_back(3); });
  mid.cancel();
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.cancel());
}

TEST(EventQueueTest, InertHandleNeverAliasesSlotZero) {
  // Regression test: a default-constructed handle carries slot 0 /
  // generation 0. cancel() must not let it hit whatever live event happens
  // to occupy slot 0 of this queue.
  EventQueue q;
  int victim_fired = 0;
  q.schedule(TimePoint::from_ns(10), [&] { ++victim_fired; });  // slot 0
  EventHandle inert;
  EXPECT_FALSE(inert.cancel());
  EXPECT_TRUE(q.pop_and_run());
  EXPECT_EQ(victim_fired, 1);
}

TEST(EventQueueTest, ForeignQueueHandleIsRejected) {
  EventQueue a;
  EventQueue b;
  int a_fired = 0;
  int b_fired = 0;
  EventHandle ha = a.schedule(TimePoint::from_ns(10), [&] { ++a_fired; });
  b.schedule(TimePoint::from_ns(10), [&] { ++b_fired; });  // occupies b's slot 0
  // A handle only ever reaches its own queue, whose slot it names.
  EXPECT_TRUE(ha.cancel());
  EXPECT_TRUE(b.pop_and_run());
  EXPECT_FALSE(a.pop_and_run());
  EXPECT_EQ(a_fired, 0);
  EXPECT_EQ(b_fired, 1);
}

TEST(EventQueueTest, ScheduleFromInsideCallback) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint::from_ns(1), [&] {
    order.push_back(1);
    q.schedule(TimePoint::from_ns(2), [&] { order.push_back(2); });
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, ScheduledTotalCounts) {
  EventQueue q;
  q.schedule(TimePoint::from_ns(1), [] {});
  q.schedule(TimePoint::from_ns(2), [] {});
  EXPECT_EQ(q.scheduled_total(), 2u);
}

TEST(EventQueueTest, ReservedSeqKeepsItsSameInstantPlace) {
  // A seq taken before other events were scheduled orders the late-posted
  // event ahead of them at an equal time, and after those scheduled before.
  EventQueue q;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_ns(50);
  q.schedule(t, [&] { order.push_back(0); });
  const std::uint64_t seq = q.take_seq();
  q.schedule(t, [&] { order.push_back(2); });
  q.schedule(t, seq, [&] { order.push_back(1); });
  EXPECT_EQ(q.scheduled_total(), 3u);  // the late post reuses its seq
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueDeathTest, PopOnEmptyAborts) {
  EventQueue q;
  EXPECT_DEATH(q.pop_and_run(), "empty");
}

// --- Cancelled entries ---------------------------------------------------------

TEST(EventQueueTest, CancelledEntriesCountUntilPopped) {
  EventQueue q;
  std::vector<EventHandle> handles;
  handles.reserve(5);
  for (int i = 0; i < 5; ++i) {
    handles.push_back(q.schedule(TimePoint::from_ns(i + 1), [] {}));
  }
  for (auto& h : handles) EXPECT_TRUE(h.cancel());
  // empty() reads the heap: the five no-ops are still there to be popped.
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.heap_size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(q.pop_and_run());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.fired_total(), 0u);
  EXPECT_EQ(q.scheduled_total(), 5u);
}

TEST(EventQueueTest, NextTimeReportsCancelledHeadUntilPopped) {
  EventQueue q;
  EventHandle head = q.schedule(TimePoint::from_ns(10), [] {});
  q.schedule(TimePoint::from_ns(20), [] {});
  head.cancel();
  EXPECT_EQ(q.next_time(), TimePoint::from_ns(10));
  EXPECT_FALSE(q.pop_and_run());
  EXPECT_EQ(q.next_time(), TimePoint::from_ns(20));
}

TEST(EventQueueTest, DoubleCancelCountsOneTombstone) {
  EventQueue q;
  EventHandle h = q.schedule(TimePoint::from_ns(10), [] {});
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.cancel());  // second cancel is a no-op...
  EXPECT_EQ(q.heap_size(), 1u);
  EXPECT_FALSE(q.pop_and_run());  // ...and the entry is popped exactly once
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelAfterFireLeavesNoTombstone) {
  EventQueue q;
  EventHandle h = q.schedule(TimePoint::from_ns(10), [] {});
  EXPECT_TRUE(q.pop_and_run());
  EXPECT_FALSE(h.cancel());  // already fired: nothing to cancel
  EXPECT_EQ(q.fired_total(), 1u);
  EXPECT_EQ(q.heap_size(), 0u);
}

TEST(EventQueueTest, AccountingBalancesAfterMixedDrain) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(q.schedule(TimePoint::from_ns(i), [&order, i] { order.push_back(i); }));
  }
  for (std::size_t i = 0; i < handles.size(); i += 3) handles[i].cancel();
  std::uint64_t discarded = 0;
  while (!q.empty()) discarded += q.pop_and_run() ? 0 : 1;
  // Every scheduled event either fired or was popped cancelled, and the
  // survivors ran in order.
  EXPECT_EQ(q.fired_total() + discarded, q.scheduled_total());
  EXPECT_EQ(discarded, 34u);  // ceil(100 / 3)
  ASSERT_EQ(order.size(), 66u);
  for (std::size_t k = 1; k < order.size(); ++k) EXPECT_LT(order[k - 1], order[k]);
  for (int i : order) EXPECT_NE(i % 3, 0);
}

}  // namespace
}  // namespace hsr::sim
