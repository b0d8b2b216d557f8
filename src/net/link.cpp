#include "net/link.h"

#include <algorithm>

#include "util/logging.h"

namespace hsr::net {

Link::Link(sim::Simulator& sim, LinkConfig config)
    : sim_(sim), config_(std::move(config)), departures_(config_.queue_capacity) {
  HSR_CHECK(config_.rate_bps > 0.0);
  HSR_CHECK(config_.queue_capacity > 0);
}

Duration Link::serialization_time(std::uint32_t bytes) const {
  const double seconds = static_cast<double>(bytes) * 8.0 / config_.rate_bps;
  return Duration::from_seconds(seconds);
}

// Setup-time: the registry vector may grow here, never on the packet path.
void Link::register_endpoint(FlowId flow, std::unique_ptr<ChannelModel> channel,
                             Receiver receiver, LinkTap* tap) {
  HSR_CHECK_MSG(channel != nullptr, "null channel");
  HSR_CHECK_MSG(receiver, "null receiver");
  HSR_CHECK_MSG(find(flow) == nullptr, "flow already has an endpoint on this link");
  if (endpoints_.empty()) first_flow_ = flow;
  HSR_CHECK_MSG(std::uint64_t{flow} == first_flow_ + endpoints_.size(),
                "flows register on a link in consecutive order");
  endpoints_.push_back(Endpoint{std::move(channel), std::move(receiver), tap, {}});
}

const LinkStats& Link::endpoint_stats(FlowId flow) const {
  const Endpoint* ep = find(flow);
  HSR_CHECK_MSG(ep != nullptr, "endpoint_stats for unregistered flow");
  return ep->stats;
}

LinkStats Link::stats() const {
  LinkStats sum;
  for (const Endpoint& ep : endpoints_) {
    sum.sent += ep.stats.sent;
    sum.delivered += ep.stats.delivered;
    sum.bytes_delivered += ep.stats.bytes_delivered;
    sum.injected_duplicates += ep.stats.injected_duplicates;
    for (std::size_t c = 0; c < kDropCategoryCount; ++c) {
      sum.dropped_by_category[c] += ep.stats.dropped_by_category[c];
    }
  }
  return sum;
}

// HSR_HOT_PATH_BEGIN — send/deliver run once per packet; the capture-fits-
// inline static_assert below and the hsr-lint hotpath family together keep
// this path allocation-free in steady state (pinned by sim.hotpath_alloc).
const Link::Endpoint* Link::find(FlowId flow) const {
  // In u64, a flow below first_flow_ wraps far past the end.
  const std::uint64_t index = std::uint64_t{flow} - first_flow_;
  return index < endpoints_.size() ? &endpoints_[index] : nullptr;
}

Link::Endpoint& Link::endpoint_of(const Packet& packet) {
  const Endpoint* ep = find(packet.flow);
  HSR_CHECK_MSG(ep != nullptr, "no endpoint for the packet's flow on this link");
  return const_cast<Endpoint&>(*ep);
}

void Link::prune_departures() {
  const TimePoint now = sim_.now();
  while (!departures_.empty() && departures_.front() <= now) {
    departures_.pop_front();
  }
}

void Link::drop(Endpoint& ep, const Packet& packet, TimePoint when,
                const DropCause& cause) {
  ++ep.stats.dropped_by_category[static_cast<std::size_t>(cause.category)];
  if (ep.tap != nullptr) ep.tap->on_drop(packet, when, cause);
}

void Link::send(Packet packet) {
  const TimePoint now = sim_.now();
  packet.sent_at = now;
  Endpoint& ep = endpoint_of(packet);
  ++ep.stats.sent;
  if (ep.tap != nullptr) ep.tap->on_send(packet, now);

  prune_departures();
  if (departures_.size() >= config_.queue_capacity) {
    // Overflow blame goes to the arriving flow: the one that found the
    // shared queue full.
    drop(ep, packet, now, DropCause::queue_overflow());
    return;
  }

  const TimePoint start = std::max(now, busy_until_);
  const TimePoint departure = start + serialization_time(packet.size_bytes);
  busy_until_ = departure;
  departures_.push_back(departure);  // hsr-lint-ok: fixed ring, never allocates

  // Channel fate is evaluated at transmission time: the packet occupies the
  // queue/transmitter either way (it is corrupted on the air, not dropped
  // before entering the NIC). Only the flow's own channel sees the packet,
  // so each flow's loss processes evolve from its own packet stream.
  const ChannelVerdict verdict = ep.channel->decide(packet, start);
  if (verdict.dropped) {
    HSR_DCHECK_MSG(verdict.cause.category != DropCategory::kUnknown,
                   "channel drop without cause attribution");
    drop(ep, packet, start, verdict.cause);
    return;
  }

  const TimePoint arrival = departure + config_.prop_delay + verdict.extra_delay;
  // Duplication faults: the channel may inject extra copies of a delivered
  // packet (same id — it is the SAME packet arriving more than once, as on a
  // real path with a duplicating middlebox). Copies share the arrival time.
  const unsigned copies = 1 + verdict.duplicate_copies;
  ep.stats.injected_duplicates += copies - 1;
  for (unsigned c = 0; c + 1 < copies; ++c) {
    sim_.at(arrival, [this, packet] { deliver(packet); });
  }
  // Common path (no duplication): the packet moves into the event capture —
  // the only copy of its metadata between the NIC and the receiving
  // endpoint. The capture must stay inside the event slab: a change that
  // pushes it past the inline budget re-introduces a per-packet allocation,
  // so the fit is asserted at compile time.
  auto delivery = [this, p = std::move(packet)] { deliver(p); };
  static_assert(sim::EventAction::holds_inline<decltype(delivery)>(),
                "Link delivery capture outgrew kEventActionInlineBytes; "
                "the per-packet zero-allocation guarantee would be lost");
  sim_.at(arrival, std::move(delivery));
}

void Link::deliver(const Packet& packet) {
  Endpoint& ep = endpoint_of(packet);
  ++ep.stats.delivered;
  ep.stats.bytes_delivered += packet.size_bytes;
  if (ep.tap != nullptr) ep.tap->on_deliver(packet, packet.sent_at, sim_.now());
  ep.receiver(packet);
}
// HSR_HOT_PATH_END

}  // namespace hsr::net
