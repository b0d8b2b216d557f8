// A unidirectional link: serialization at a fixed rate, a DropTail queue and
// fixed propagation delay, shared by every flow attached to it. Each flow
// attaches through an endpoint that brings its own ChannelModel for loss and
// jitter, so a point-to-point link is simply a link with one endpoint.
//
// Two links back-to-back (data direction + ACK direction) form the path a
// TCP connection runs over.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "util/inline_function.h"

namespace hsr::net {

// Observer of everything that happens on a link. The trace module implements
// this to play the role of a wireshark capture at each endpoint; it joins
// fates to sends by the call order stated here (DESIGN.md §6f).
class LinkTap {
 public:
  virtual ~LinkTap() = default;
  // Packet handed to the link by the sender (seen at the sender's NIC).
  // Senders allocate its id right before Link::send, so ids increase.
  virtual void on_send(const Packet& packet, TimePoint when) = 0;
  // Packet dropped (queue or channel); never delivered. `cause` is the
  // attribution — the category, plus the directive index of a scripted
  // kill — produced by the Link (queue overflow) or the ChannelVerdict.
  // Synchronous: reported right after the packet's on_send.
  virtual void on_drop(const Packet& packet, TimePoint when,
                       const DropCause& cause) = 0;
  // Packet delivered to the receiving endpoint.
  virtual void on_deliver(const Packet& packet, TimePoint sent, TimePoint arrived) = 0;
};

struct LinkConfig {
  double rate_bps = 10e6;                    // serialization rate
  Duration prop_delay = Duration::millis(15);  // one-way propagation
  std::size_t queue_capacity = 64;           // packets, DropTail
  std::string name = "link";
};

struct LinkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bytes_delivered = 0;
  // Extra copies injected by the channel (duplication faults). Each copy is
  // also counted in `delivered`, so delivered can exceed sent.
  std::uint64_t injected_duplicates = 0;

  // Per-cause drop counters, indexed by DropCategory. The legacy
  // queue-vs-channel split is a derived view over this map.
  std::array<std::uint64_t, kDropCategoryCount> dropped_by_category{};

  std::uint64_t dropped_by(DropCategory category) const {
    return dropped_by_category[static_cast<std::size_t>(category)];
  }
  std::uint64_t dropped_total() const {
    return std::accumulate(dropped_by_category.begin(), dropped_by_category.end(),
                           std::uint64_t{0});
  }
  // Derived views: the pre-cause-code split.
  std::uint64_t dropped_queue() const {
    return dropped_by(DropCategory::kQueueOverflow);
  }
  std::uint64_t dropped_channel() const { return dropped_total() - dropped_queue(); }

  double loss_rate() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(dropped_total()) / static_cast<double>(sent);
  }
};

class Link {
 public:
  // Destination callback type: move-only, SBO. Endpoint receivers capture a
  // pointer or two; anything larger falls back to one heap allocation at
  // register_endpoint time (never on the per-packet delivery path).
  using Receiver = util::InlineFunction<void(const Packet&), 48>;

  Link(sim::Simulator& sim, LinkConfig config);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Attaches a flow. Every flow shares the link's one DropTail queue and
  // transmitter; its endpoint owns the rest: the channel deciding its
  // packets' fate on the air (private randomness, fade state, scripted
  // faults), the receiver its packets are delivered to, an optional capture
  // tap (non-owning; must outlive the link) and its LinkStats. Flows register
  // in consecutive order from the first one (f, f+1, f+2, ...), so a packet
  // finds its endpoint by indexing with its FlowId. Setup-time only: the
  // registry may reallocate here, never on the packet path.
  void register_endpoint(FlowId flow, std::unique_ptr<ChannelModel> channel,
                         Receiver receiver, LinkTap* tap = nullptr);
  // This flow's stats. CHECK-fails for flows that never registered.
  const LinkStats& endpoint_stats(FlowId flow) const;
  // The sum over every endpoint's stats.
  LinkStats stats() const;

  // Hands a packet to the link; the link stamps `sent_at`. The packet's flow
  // must have an endpoint.
  void send(Packet packet);

 private:
  struct Endpoint {
    std::unique_ptr<ChannelModel> channel;
    Receiver receiver;
    LinkTap* tap = nullptr;
    LinkStats stats;
  };

  Duration serialization_time(std::uint32_t bytes) const;
  void prune_departures();
  // Counts the drop in the flow's stats and reports it to the flow's tap.
  void drop(Endpoint& ep, const Packet& packet, TimePoint when, const DropCause& cause);
  // Arrival-time bookkeeping + tap + receiver hand-off. Runs at the
  // packet's arrival instant, so sim.now() IS the arrival time.
  void deliver(const Packet& packet);
  // The flow's slot in the registry; nullptr for unregistered flows.
  const Endpoint* find(FlowId flow) const;
  // The endpoint of a packet's flow; CHECK-fails when the flow has none.
  Endpoint& endpoint_of(const Packet& packet);

  sim::Simulator& sim_;
  LinkConfig config_;
  FlowId first_flow_ = 0;            // flow of endpoints_[0]
  std::vector<Endpoint> endpoints_;  // endpoints_[i] serves first_flow_ + i

  // Time the transmitter finishes the last accepted packet.
  TimePoint busy_until_ = TimePoint::zero();
  // Departure (serialization-finish) times of queued packets, for depth
  // accounting; pruned lazily. DropTail caps the depth at queue_capacity,
  // so a ring of exactly that size replaces the former std::deque: the
  // deque's block churn cost one allocation per block of pushes on the
  // per-packet path, the ring never touches the heap after construction
  // (pinned by MultiFlowAllocTest).
  class DepartureRing {
   public:
    explicit DepartureRing(std::size_t capacity) : slots_(capacity) {}
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    TimePoint front() const { return slots_[head_]; }
    void pop_front() {
      head_ = head_ + 1 == slots_.size() ? 0 : head_ + 1;
      --count_;
    }
    // Caller guarantees size() < capacity (the DropTail check).
    void push_back(TimePoint departure) {
      std::size_t tail = head_ + count_;
      if (tail >= slots_.size()) tail -= slots_.size();
      slots_[tail] = departure;
      ++count_;
    }

   private:
    std::vector<TimePoint> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };
  DepartureRing departures_;
};

}  // namespace hsr::net
