#include "sim/timer.h"

namespace hsr::sim {

// HSR_HOT_PATH_BEGIN — the ACK-clocked RTO re-arm runs once per ACK.
void Timer::arm(Duration delay) {
  deadline_ = sim_.now() + delay;
  // Takes the seq a freshly scheduled expiry event would get, so the expiry
  // fires after everything already scheduled for that instant.
  seq_ = sim_.take_seq();
  armed_ = true;
  // A wake-up at or before the deadline catches up with it by re-posting.
  if (wake_time_ <= deadline_) return;
  // One after it (the deadline moved earlier) would fire too late.
  wake_.cancel();
  post_wake();
}

void Timer::post_wake() {
  wake_time_ = deadline_;
  wake_seq_ = seq_;
  wake_ = sim_.at(deadline_, seq_, [this] { on_wake(); });
}

void Timer::on_wake() {
  const bool expired = armed_ && wake_time_ == deadline_ && wake_seq_ == seq_;
  wake_time_ = TimePoint::max();
  if (expired) {
    armed_ = false;
    on_expire_();
    return;
  }
  sim_.discount_running_event();
  if (armed_) post_wake();
}
// HSR_HOT_PATH_END

}  // namespace hsr::sim
