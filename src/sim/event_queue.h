// Priority queue of timestamped events with stable FIFO ordering among
// events scheduled for the same instant, O(1) cancellation, and
// slab-allocated event records (no per-event heap allocation beyond what
// the action's captures need).
#pragma once

#include <cstdint>
#include <vector>

#include "util/inline_function.h"
#include "util/time.h"

namespace hsr::sim {

using util::Duration;
using util::TimePoint;

// Inline capture budget for event actions, sized so every hot-path capture
// in the stack — the largest is net::Link's delivery lambda, which carries a
// full Packet plus the link pointer (link.cpp static_asserts it) — lives in
// the slab slot and never touches the allocator. Oversized captures still
// work; they fall back to one heap allocation (see util::InlineFunction).
inline constexpr std::size_t kEventActionInlineBytes = 160;

// The callable stored per scheduled event: move-only, small-buffer
// optimized. Anything invocable as void() converts implicitly.
using EventAction = util::InlineFunction<void(), kEventActionInlineBytes>;

class EventQueue;

// Handle to a scheduled event; allows cancellation. Default-constructed
// handles are inert. Handles are cheap to copy (queue pointer + slot index
// + generation); a generation counter makes handles to popped or reused
// slots inert, so stale handles are always safe — but a handle must not
// outlive its EventQueue.
class EventHandle {
 public:
  EventHandle() = default;

  // Turns the event into a no-op if it has not run yet; returns whether it
  // was still due to run.
  bool cancel();

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}
  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

// Events are ordered by (time, seq): the seq is handed out at scheduling, so
// events at equal times fire in scheduling order. A cancelled event keeps
// its heap entry and is popped at its time without running; `empty()` and
// `next_time()` count it until then. Timers keep cancels rare (sim::Timer
// moves a deadline instead of cancelling its event), so dead entries never
// dominate the heap.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Pre-sizes the slab and the heap for an expected peak of concurrently
  // pending events, so a workload whose event population ramps slowly (many
  // TCP flows opening their windows) reaches steady state without the
  // vectors ever growing mid-run. Never shrinks.
  void reserve(std::size_t expected_pending);

  // Schedules `action` at absolute time `when` under the next seq. Events at
  // equal times fire in scheduling order. Inline-sized captures are stored
  // in the slab slot: no allocation on the schedule path. Actions pass by
  // rvalue reference down to their slot, so a capture is relocated once.
  EventHandle schedule(TimePoint when, EventAction&& action);

  // Reserves the next seq without scheduling anything: a later
  // schedule(when, seq, ...) fires in the same-instant position the event
  // would have had if it had been scheduled now (see sim::Timer).
  std::uint64_t take_seq() { return next_seq_++; }
  // Schedules `action` at (when, seq) for a seq from take_seq().
  EventHandle schedule(TimePoint when, std::uint64_t seq, EventAction&& action);

  bool empty() const { return heap_.empty(); }

  // Time of the earliest entry, cancelled or not; TimePoint::max() when
  // empty.
  TimePoint next_time() const {
    return heap_.empty() ? TimePoint::max() : heap_.front().when;
  }

  // Pops the earliest entry and runs its action; returns false (and runs
  // nothing) when the event was cancelled. Precondition: !empty().
  bool pop_and_run();

  // Seqs handed out over the queue's lifetime, by schedule(when, action)
  // and take_seq(): one per event or timer arm the simulation asked for.
  std::uint64_t scheduled_total() const { return next_seq_; }

  // Events popped and run (diagnostics / invariant accounting).
  std::uint64_t fired_total() const { return fired_total_; }

  // Heap entries, cancelled ones included (diagnostics).
  std::size_t heap_size() const { return heap_.size(); }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  // One event record in the slab. A slot is in use from schedule to pop;
  // an empty action marks it cancelled. Freed slots are chained through
  // `next_free` and reused; `generation` bumps on every release so handles
  // into reused slots read as inert.
  struct Slot {
    EventAction action;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNilSlot;
  };
  struct HeapEntry {
    TimePoint when;
    std::uint64_t seq = 0;
    std::uint32_t slot = kNilSlot;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  bool cancel_handle(const EventHandle& h);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  std::vector<HeapEntry> heap_;  // binary min-heap via std::push_heap
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 0;
  // Accounting: every entry ever pushed is in the heap, fired, or was popped
  // cancelled — pushed_ == fired_total_ + discarded_ + heap size.
  std::uint64_t pushed_ = 0;
  std::uint64_t fired_total_ = 0;
  std::uint64_t discarded_ = 0;
  TimePoint last_popped_ = TimePoint::zero();  // for monotonicity invariant
};

}  // namespace hsr::sim
