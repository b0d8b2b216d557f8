#include "sim/timer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace hsr::sim {
namespace {

TEST(TimerTest, FiresAtExpiry) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(Duration::millis(10));
  EXPECT_TRUE(t.armed());
  EXPECT_EQ(t.expiry(), TimePoint::zero() + Duration::millis(10));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
}

TEST(TimerTest, CancelPreventsFiring) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(Duration::millis(10));
  t.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, RearmReplacesPrevious) {
  Simulator sim;
  std::vector<TimePoint> fires;
  Timer t(sim, [&] { fires.push_back(sim.now()); });
  t.arm(Duration::millis(10));
  t.arm(Duration::millis(20));  // replaces the 10ms arm
  sim.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], TimePoint::zero() + Duration::millis(20));
}

TEST(TimerTest, RearmFromCallback) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] {
    if (++fired < 3) t.arm(Duration::millis(5));
  });
  t.arm(Duration::millis(5));
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), TimePoint::zero() + Duration::millis(15));
}

TEST(TimerTest, CancelIdleIsNoop) {
  Simulator sim;
  Timer t(sim, [] {});
  t.cancel();
  EXPECT_FALSE(t.armed());
}

TEST(TimerTest, DestructorCancels) {
  Simulator sim;
  int fired = 0;
  {
    Timer t(sim, [&] { ++fired; });
    t.arm(Duration::millis(1));
  }
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, EarlierDeadlineReplacesLaterWakeUp) {
  Simulator sim;
  std::vector<TimePoint> fires;
  Timer t(sim, [&] { fires.push_back(sim.now()); });
  t.arm(Duration::millis(20));
  t.arm(Duration::millis(5));  // the 20 ms wake-up would fire too late
  sim.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], TimePoint::zero() + Duration::millis(5));
  EXPECT_EQ(sim.events_executed(), 1u);
  // The cancelled 20 ms wake-up is drained as an idle entry.
  EXPECT_EQ(sim.idle_events(), 1u);
  EXPECT_EQ(sim.now(), TimePoint::zero() + Duration::millis(20));
}

TEST(TimerTest, EarlyWakeUpIsIdleAndCatchesUp) {
  Simulator sim;
  std::vector<TimePoint> fires;
  Timer t(sim, [&] { fires.push_back(sim.now()); });
  t.arm(Duration::millis(5));
  sim.after(Duration::millis(1), [&] { t.arm(Duration::millis(9)); });
  sim.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], TimePoint::zero() + Duration::millis(10));
  // The 5 ms wake-up re-posted itself without counting as an event.
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.idle_events(), 1u);
  EXPECT_EQ(sim.queue().scheduled_total(), 3u);  // two arms + one event
}

TEST(TimerTest, ExpiryFollowsEventsScheduledBeforeTheLastArm) {
  // Re-arming to the same deadline moves the expiry behind every event
  // already scheduled for that instant, and ahead of later ones.
  Simulator sim;
  std::vector<int> order;
  const TimePoint t10 = TimePoint::zero() + Duration::millis(10);
  Timer t(sim, [&] { order.push_back(0); });
  t.arm(Duration::millis(10));
  sim.at(t10, [&] { order.push_back(1); });
  sim.after(Duration::millis(4), [&] {
    sim.at(t10, [&] { order.push_back(2); });
    t.arm(Duration::millis(6));  // same deadline, later seq
    sim.at(t10, [&] { order.push_back(3); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3}));
}

TEST(TimerTest, ArmChurnKeepsOneWakeUp) {
  // The ACK-clocked RTO re-arm (ever later deadlines) and the delayed-ACK
  // arm/cancel pair touch no event: the timer keeps one wake-up in the heap.
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  for (int i = 1; i <= 5'000; ++i) {
    t.arm(Duration::micros(i));
    ASSERT_LE(sim.queue().heap_size(), 1u);
  }
  for (int i = 0; i < 5'000; ++i) {
    t.arm(Duration::millis(200));
    t.cancel();
    ASSERT_LE(sim.queue().heap_size(), 1u);
  }
  EXPECT_EQ(sim.queue().scheduled_total(), 10'000u);  // one seq per arm
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_executed(), 0u);
}

// --- Differential test against an eager reference timer -----------------------
//
// The reference has the eager semantics the lazy timer replaced: every arm
// schedules a fresh expiry event (taking one seq, as the lazy arm does), and
// a generation number turns superseded and cancelled expiries into no-ops.
class EagerTimer {
 public:
  EagerTimer(Simulator& sim, EventAction on_expire)
      : sim_(sim), on_expire_(std::move(on_expire)) {}

  void arm(Duration delay) {
    const std::uint64_t generation = ++generation_;
    sim_.after(delay, [this, generation] {
      if (generation == generation_) on_expire_();
    });
  }
  void cancel() { ++generation_; }

 private:
  Simulator& sim_;
  EventAction on_expire_;
  std::uint64_t generation_ = 0;
};

// (time in ns, id) of every event that does work, in execution order.
using WorkLog = std::vector<std::pair<std::int64_t, int>>;

// A seeded script of four timers and background traffic on a 1 ms lattice,
// so deadlines collide with other events at the same instant. Every working
// event draws its next operations from one RNG stream, so two runs agree
// exactly as long as their events run in the same order.
template <class TimerT>
class TimerScript {
 public:
  static constexpr int kTimers = 4;
  static constexpr int kOps = 300;

  explicit TimerScript(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < kTimers; ++i) {
      timers_.push_back(std::make_unique<TimerT>(sim_, [this, i] { on_expire(i); }));
    }
  }

  WorkLog run() {
    for (int k = 0; k < 6; ++k) post_traffic();
    sim_.run();
    return std::move(log_);
  }

 private:
  Duration lattice_delay() {
    static constexpr std::int64_t kDelaysMs[] = {0, 1, 2, 3, 5, 8};
    return Duration::millis(kDelaysMs[rng_.uniform_int(0, 5)]);
  }

  void post_traffic() {
    const int id = next_traffic_id_++;
    sim_.after(lattice_delay(), [this, id] {
      record(id);
      random_ops();
    });
  }

  void on_expire(int timer) {
    record(-1 - timer);
    if (ops_left_ > 0 && rng_.bernoulli(0.3)) {
      --ops_left_;
      timers_[timer]->arm(lattice_delay());  // re-arm from inside the callback
    }
    random_ops();
  }

  void random_ops() {
    for (std::int64_t n = rng_.uniform_int(1, 3); n > 0 && ops_left_ > 0; --n) {
      --ops_left_;
      TimerT& t = *timers_[rng_.uniform_int(0, kTimers - 1)];
      switch (rng_.uniform_int(0, 4)) {
        case 0:
        case 1: t.arm(lattice_delay()); break;
        case 2: t.cancel(); break;
        default: post_traffic(); break;
      }
    }
  }

  void record(int id) { log_.emplace_back(sim_.now().ns(), id); }

  Simulator sim_;
  util::Rng rng_;
  std::vector<std::unique_ptr<TimerT>> timers_;
  WorkLog log_;
  int next_traffic_id_ = 0;
  int ops_left_ = kOps;
};

TEST(TimerDifferentialTest, SeededScriptsMatchTheEagerTimer) {
  constexpr std::uint64_t kSeeds = 2'000;
  std::uint64_t mismatches = 0;
  std::uint64_t first_mismatch = 0;
  std::size_t work_events = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const WorkLog lazy = TimerScript<Timer>(seed).run();
    const WorkLog eager = TimerScript<EagerTimer>(seed).run();
    work_events += eager.size();
    if (lazy != eager && mismatches++ == 0) first_mismatch = seed;
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatching seed: " << first_mismatch;
  EXPECT_GT(work_events, kSeeds * 100);  // the scripts do real work
}

}  // namespace
}  // namespace hsr::sim
