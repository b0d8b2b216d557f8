// Restartable one-shot timer, the building block for TCP's retransmission
// and delayed-ACK timers.
//
// The timer is lazy: arming records a deadline and the seq that fixes its
// place among events at the same instant, and one wake-up event per timer
// catches up with the deadline. A wake-up that fires before the current
// deadline (the timer was re-armed later or cancelled since it was posted)
// is idle: it re-posts itself at (deadline, seq) if the timer is still
// armed and is discounted from the simulator's executed events. An expiry
// therefore runs at exactly the (time, seq) an event scheduled by the last
// arm() would have had, while ACK-clocked re-arms and cancels touch no
// event at all.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/simulator.h"

namespace hsr::sim {

class Timer {
 public:
  // `on_expire` fires when the timer runs out; the timer is then idle and
  // can be re-armed (including from inside the callback).
  Timer(Simulator& sim, EventAction on_expire)
      : sim_(sim), on_expire_(std::move(on_expire)) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  // The simulator must outlive its timers.
  ~Timer() { wake_.cancel(); }

  // Arms (or re-arms) the timer to fire `delay` from now.
  void arm(Duration delay);
  // Disarms without firing; no-op when idle. Touches no event: a pending
  // wake-up finds the timer disarmed and goes idle.
  void cancel() { armed_ = false; }
  bool armed() const { return armed_; }
  // Absolute expiry time; only meaningful while armed.
  TimePoint expiry() const { return deadline_; }

 private:
  void post_wake();
  void on_wake();

  Simulator& sim_;
  EventAction on_expire_;
  TimePoint deadline_;
  std::uint64_t seq_ = 0;  // same-instant order of the last arm
  bool armed_ = false;
  // The one pending wake-up, keyed like an event: TimePoint::max() when
  // none is pending.
  EventHandle wake_;
  TimePoint wake_time_ = TimePoint::max();
  std::uint64_t wake_seq_ = 0;
};

}  // namespace hsr::sim
