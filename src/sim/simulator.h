// The simulation engine: a virtual clock driving an event queue.
//
// Single-threaded and deterministic: with the same seed and the same
// component construction order, a run is bit-reproducible. Experiments that
// need parallelism run multiple Simulators in separate processes/threads;
// a Simulator itself is never shared across threads.
#pragma once

#include <cstdint>

#include "sim/event_queue.h"
#include "util/time.h"

namespace hsr::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  // Schedules an event at an absolute time (must not be in the past).
  EventHandle at(TimePoint when, EventAction&& action);
  // Schedules an event `delay` from now (delay must be non-negative).
  EventHandle after(Duration delay, EventAction&& action);
  // Reserves a same-instant position now for an event scheduled later with
  // at(when, seq, action) (see EventQueue::take_seq and sim::Timer).
  std::uint64_t take_seq() { return queue_.take_seq(); }
  EventHandle at(TimePoint when, std::uint64_t seq, EventAction&& action);

  // Called by the running event when it did no simulation work (a timer
  // wake-up that found its deadline moved or cancelled): the event then
  // counts as idle, not in events_executed() or against the event budget.
  void discount_running_event() { running_counts_ = false; }

  // Runs until the queue drains or `deadline` passes, whichever first.
  // Events exactly at the deadline still run. Returns events executed.
  // Idle entries are drained like any other and move the clock to their
  // time, so run() can end at a cancelled timer's old wake-up time.
  std::uint64_t run_until(TimePoint deadline);
  // Runs until the queue drains or stop() is called.
  std::uint64_t run();

  // Requests the run loop to exit after the current event.
  void stop() { stopped_ = true; }

  // Watchdog: caps the LIFETIME number of events this simulator may execute
  // (0 = unlimited). A run loop that reaches the budget stops before the
  // next event and latches budget_exhausted(), so a wedged or runaway flow
  // terminates with a diagnosable state instead of spinning forever.
  void set_event_budget(std::uint64_t max_events) { event_budget_ = max_events; }
  bool budget_exhausted() const { return budget_exhausted_; }

  std::uint64_t events_executed() const { return executed_; }
  // Heap entries that surfaced without doing simulation work: discounted
  // timer wake-ups and cancelled events.
  std::uint64_t idle_events() const { return idle_; }

  // Pre-sizes the event queue for an expected peak of concurrently pending
  // events (see EventQueue::reserve); call before the run starts.
  void reserve_events(std::size_t expected_pending) {
    queue_.reserve(expected_pending);
  }

  // Event-queue diagnostics (scheduled/fired counters, heap size).
  const EventQueue& queue() const { return queue_; }

 private:
  EventQueue queue_;
  TimePoint now_ = TimePoint::zero();
  std::uint64_t executed_ = 0;
  std::uint64_t idle_ = 0;
  std::uint64_t event_budget_ = 0;  // 0 = unlimited
  bool budget_exhausted_ = false;
  bool stopped_ = false;
  bool running_counts_ = true;  // cleared by discount_running_event()
};

}  // namespace hsr::sim
