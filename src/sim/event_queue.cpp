#include "sim/event_queue.h"

#include <algorithm>

#include "util/logging.h"

namespace hsr::sim {

bool EventHandle::cancel() {
  return queue_ != nullptr && queue_->cancel_handle(*this);
}

void EventQueue::reserve(std::size_t expected_pending) {
  slots_.reserve(expected_pending);
  heap_.reserve(expected_pending);
}

// HSR_HOT_PATH_BEGIN — schedule/cancel/pop and the slab bookkeeping they
// ride on run once per simulated packet/timer; the steady state must not
// allocate (pinned dynamically by sim.hotpath_alloc, gated statically by
// hsr-lint's hotpath family).
bool EventQueue::cancel_handle(const EventHandle& h) {
  // An inert (default-constructed) or foreign-queue handle must never match:
  // its slot/generation pair would alias an unrelated event in this queue.
  if (h.queue_ != this || h.slot_ >= slots_.size()) return false;
  Slot& s = slots_[h.slot_];
  if (s.generation != h.generation_ || !s.action) return false;
  // Release captured state now rather than when the entry surfaces.
  s.action = nullptr;
  return true;
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNilSlot;
    return index;
  }
  slots_.emplace_back();  // hsr-lint-ok: amortized slab growth; steady state recycles via free_head_
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.action = nullptr;
  ++s.generation;  // outstanding handles to this slot become inert
  s.next_free = free_head_;
  free_head_ = index;
}

EventHandle EventQueue::schedule(TimePoint when, EventAction&& action) {
  return schedule(when, next_seq_++, std::move(action));
}

EventHandle EventQueue::schedule(TimePoint when, std::uint64_t seq,
                                 EventAction&& action) {
  HSR_DCHECK_MSG(seq < next_seq_, "scheduling under a seq never handed out");
  const std::uint32_t index = acquire_slot();
  Slot& s = slots_[index];
  s.action = std::move(action);
  heap_.push_back(HeapEntry{when, seq, index});  // hsr-lint-ok: amortized heap growth; capacity plateaus at peak depth
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++pushed_;
  return EventHandle(this, index, s.generation);
}

bool EventQueue::pop_and_run() {
  HSR_CHECK_MSG(!heap_.empty(), "pop_and_run on empty queue");
  const HeapEntry e = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  // Virtual time never runs backwards: the heap must hand entries out in
  // non-decreasing timestamp order.
  HSR_DCHECK_MSG(e.when >= last_popped_, "event queue time went backwards");
  last_popped_ = e.when;
  // Move the action out and retire the slot BEFORE running: the action may
  // schedule new events (reusing the slot) or cancel its own handle, which
  // must already read as inert.
  auto action = std::move(slots_[e.slot].action);
  release_slot(e.slot);
  if (action) {
    ++fired_total_;
  } else {
    ++discarded_;
  }
  // Nothing is lost or duplicated: every entry ever pushed is in the heap,
  // fired, or was popped cancelled.
  HSR_DCHECK_MSG(pushed_ == fired_total_ + discarded_ + heap_.size(),
                 "event accounting out of balance");
  if (!action) return false;
  action();
  return true;
}
// HSR_HOT_PATH_END

}  // namespace hsr::sim
