#include "sim/simulator.h"

#include "util/logging.h"

namespace hsr::sim {

EventHandle Simulator::at(TimePoint when, EventAction&& action) {
  HSR_CHECK_MSG(when >= now_, "scheduling into the past");
  return queue_.schedule(when, std::move(action));
}

EventHandle Simulator::after(Duration delay, EventAction&& action) {
  HSR_CHECK_MSG(delay >= Duration::zero(), "negative delay");
  return queue_.schedule(now_ + delay, std::move(action));
}

EventHandle Simulator::at(TimePoint when, std::uint64_t seq, EventAction&& action) {
  HSR_CHECK_MSG(when >= now_, "scheduling into the past");
  return queue_.schedule(when, seq, std::move(action));
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  std::uint64_t n = 0;
  stopped_ = false;
  while (!stopped_ && !queue_.empty() && queue_.next_time() <= deadline) {
    if (event_budget_ != 0 && executed_ >= event_budget_) {
      // Watchdog trip: leave the remaining events pending so callers can
      // inspect the wedged state; the clock stays at the last executed event.
      budget_exhausted_ = true;
      return n;
    }
    // The queue can never owe us an event from before the current clock:
    // at()/after() reject past schedules, so the head is always >= now.
    HSR_DCHECK_MSG(queue_.next_time() >= now_, "simulation clock would go backwards");
    now_ = queue_.next_time();
    running_counts_ = true;
    if (queue_.pop_and_run() && running_counts_) {
      ++n;
      ++executed_;
    } else {
      ++idle_;
    }
  }
  // Advance the clock to the deadline even if the queue drained early, so
  // callers measure elapsed wall time consistently.
  if (!stopped_ && now_ < deadline && deadline != TimePoint::max()) {
    now_ = deadline;
  }
  return n;
}

std::uint64_t Simulator::run() { return run_until(TimePoint::max()); }

}  // namespace hsr::sim
