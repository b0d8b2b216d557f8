#include "net/link.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace hsr::net {
namespace {

Packet data_packet(std::uint32_t size = 1000) {
  Packet p;
  p.id = allocate_packet_id();
  p.kind = PacketKind::kData;
  p.size_bytes = size;
  return p;
}

class RecordingTap : public LinkTap {
 public:
  struct Drop {
    std::uint64_t id;
    DropCause cause;
  };
  void on_send(const Packet& p, TimePoint) override {
    sends.push_back(p.id);
    send_stamps.push_back(p.sent_at);
  }
  void on_drop(const Packet& p, TimePoint, const DropCause& c) override {
    drops.push_back({p.id, c});
  }
  void on_deliver(const Packet& p, TimePoint sent, TimePoint arrived) override {
    delivers.push_back(p.id);
    transits.push_back(arrived - sent);
  }
  std::vector<std::uint64_t> sends, delivers;
  std::vector<Drop> drops;
  std::vector<Duration> transits;
  std::vector<TimePoint> send_stamps;  // sent_at as on_send saw it
};

// Attaches `flow` over a channel that never drops or delays.
void attach(Link& link, FlowId flow, Link::Receiver receiver, LinkTap* tap = nullptr) {
  link.register_endpoint(flow, std::make_unique<PerfectChannel>(), std::move(receiver),
                         tap);
}

TEST(LinkTest, DeliversWithSerializationPlusPropagation) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1 byte per microsecond
  cfg.prop_delay = Duration::millis(10);
  Link link(sim, cfg);

  TimePoint arrival;
  attach(link, 0, [&](const Packet&) { arrival = sim.now(); });
  link.send(data_packet(1000));  // 1ms serialization
  sim.run();
  EXPECT_EQ(arrival, TimePoint::zero() + Duration::millis(11));
  EXPECT_EQ(link.stats().sent, 1u);
  EXPECT_EQ(link.stats().delivered, 1u);
  EXPECT_EQ(link.stats().bytes_delivered, 1000u);
}

TEST(LinkTest, BackToBackPacketsQueueBehindEachOther) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = Duration::zero();
  Link link(sim, cfg);

  std::vector<TimePoint> arrivals;
  attach(link, 0, [&](const Packet&) { arrivals.push_back(sim.now()); });
  link.send(data_packet(1000));  // finishes at 1ms
  link.send(data_packet(1000));  // finishes at 2ms
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], TimePoint::zero() + Duration::millis(1));
  EXPECT_EQ(arrivals[1], TimePoint::zero() + Duration::millis(2));
}

TEST(LinkTest, PreservesFifoOrderWithoutJitter) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 1e6;
  cfg.queue_capacity = 100;
  Link link(sim, cfg);

  std::vector<std::uint64_t> seen;
  attach(link, 0, [&](const Packet& p) { seen.push_back(p.seq); });
  for (std::uint64_t i = 1; i <= 20; ++i) {
    Packet p = data_packet();
    p.seq = i;
    link.send(std::move(p));
  }
  sim.run();
  ASSERT_EQ(seen.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(LinkTest, DropTailOnQueueOverflow) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e3;  // 1ms per byte: long queue residence
  cfg.queue_capacity = 3;
  Link link(sim, cfg);
  RecordingTap tap;
  attach(link, 0, [](const Packet&) {}, &tap);

  for (int i = 0; i < 5; ++i) link.send(data_packet(100));
  sim.run();
  EXPECT_EQ(link.stats().sent, 5u);
  EXPECT_EQ(link.stats().dropped_queue(), 2u);
  EXPECT_EQ(link.stats().delivered, 3u);
  ASSERT_EQ(tap.drops.size(), 2u);
  EXPECT_EQ(tap.drops[0].cause.category, DropCategory::kQueueOverflow);
  EXPECT_TRUE(tap.drops[0].cause.is_queue());
}

TEST(LinkTest, QueueDrainsOverTime) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.queue_capacity = 2;
  Link link(sim, cfg);
  attach(link, 0, [](const Packet&) {});

  link.send(data_packet(1000));
  link.send(data_packet(1000));
  link.send(data_packet(1000));  // the queue is full: tail-dropped
  EXPECT_EQ(link.stats().dropped_queue(), 1u);
  sim.run();
  EXPECT_EQ(link.stats().delivered, 2u);
  // Drained: a full queue's worth of capacity is available again.
  link.send(data_packet(1000));
  link.send(data_packet(1000));
  sim.run();
  EXPECT_EQ(link.stats().dropped_queue(), 1u);
  EXPECT_EQ(link.stats().delivered, 4u);
}

TEST(LinkTest, ChannelLossCountsAndReportsToTap) {
  sim::Simulator sim;
  LinkConfig cfg;
  Link link(sim, cfg);
  RecordingTap tap;
  int received = 0;
  link.register_endpoint(0, std::make_unique<BernoulliChannel>(1.0, util::Rng(1)),
                         [&](const Packet&) { ++received; }, &tap);

  link.send(data_packet());
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(link.stats().dropped_channel(), 1u);
  EXPECT_EQ(link.stats().dropped_by(DropCategory::kBernoulli), 1u);
  ASSERT_EQ(tap.drops.size(), 1u);
  EXPECT_EQ(tap.drops[0].cause.category, DropCategory::kBernoulli);
  EXPECT_TRUE(tap.drops[0].cause.is_channel());
  EXPECT_DOUBLE_EQ(link.stats().loss_rate(), 1.0);
}

TEST(LinkTest, StatsLossRateMixed) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 100e6;
  cfg.queue_capacity = 1000;
  Link link(sim, cfg);
  link.register_endpoint(0, std::make_unique<BernoulliChannel>(0.2, util::Rng(33)),
                         [](const Packet&) {});
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    link.send(data_packet(100));
    sim.run();  // drain each time so the queue never overflows
  }
  EXPECT_EQ(link.stats().sent, static_cast<std::uint64_t>(n));
  EXPECT_NEAR(link.stats().loss_rate(), 0.2, 0.02);
  EXPECT_EQ(link.stats().dropped_queue(), 0u);
  EXPECT_EQ(link.stats().dropped_total(), link.stats().dropped_channel());
}

TEST(LinkTest, TapSeesEverySend) {
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  RecordingTap tap;
  attach(link, 0, [](const Packet&) {}, &tap);
  for (int i = 0; i < 7; ++i) link.send(data_packet());
  sim.run();
  EXPECT_EQ(tap.sends.size(), 7u);
  EXPECT_EQ(tap.delivers.size(), 7u);
}

TEST(LinkTest, StampsSentAt) {
  // The stamp is on the packet before the tap sees the send, not only at
  // delivery.
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  RecordingTap tap;
  TimePoint stamped;
  attach(link, 0, [&](const Packet& p) { stamped = p.sent_at; }, &tap);
  sim.after(Duration::millis(5), [&] { link.send(data_packet()); });
  sim.run();
  const TimePoint five_ms = TimePoint::zero() + Duration::millis(5);
  EXPECT_EQ(stamped, five_ms);
  EXPECT_EQ(tap.send_stamps, std::vector<TimePoint>{five_ms});
}

// --- per-flow endpoints -------------------------------------------------------

Packet flow_packet(FlowId flow, std::uint32_t size = 1000) {
  Packet p = data_packet(size);
  p.flow = flow;
  return p;
}

// Records the id of every packet it decides, and delivers it.
class RecordingChannel final : public ChannelModel {
 public:
  explicit RecordingChannel(std::vector<std::uint64_t>* seen) : seen_(seen) {}
  ChannelVerdict decide(const Packet& p, TimePoint) override {
    seen_->push_back(p.id);
    return ChannelVerdict::deliver();
  }

 private:
  std::vector<std::uint64_t>* seen_;
};

TEST(LinkEndpointTest, RoutesEachFlowToItsOwnReceiver) {
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  std::vector<FlowId> to_one, to_two;
  attach(link, 1, [&](const Packet& p) { to_one.push_back(p.flow); });
  attach(link, 2, [&](const Packet& p) { to_two.push_back(p.flow); });

  link.send(flow_packet(1));
  link.send(flow_packet(2));
  link.send(flow_packet(1));
  sim.run();
  EXPECT_EQ(to_one, (std::vector<FlowId>{1, 1}));
  EXPECT_EQ(to_two, (std::vector<FlowId>{2}));
}

TEST(LinkEndpointTest, EachFlowsChannelDecidesOnlyItsOwnPacketsInSendOrder) {
  // Per-flow loss processes must evolve from their own flow's packet stream
  // alone: each endpoint's channel sees exactly its flow's packets, in the
  // order they were sent, and nothing of another flow's. Checked on a
  // two-flow link and on a 64-flow link (a shared cell's population), each
  // fed an uneven send order that is not in flow order.
  std::vector<FlowId> sixty_four_order;
  for (FlowId k = 0; k < 256; ++k) sixty_four_order.push_back(1 + (k * 37 + k / 5) % 64);
  const std::vector<std::pair<FlowId, std::vector<FlowId>>> inputs = {
      {2, {1, 2, 1, 1, 2, 1}}, {64, sixty_four_order}};
  for (const auto& [flows, order] : inputs) {
    SCOPED_TRACE(flows);
    sim::Simulator sim;
    LinkConfig cfg;
    cfg.queue_capacity = order.size();
    Link link(sim, cfg);
    std::vector<std::vector<std::uint64_t>> seen(flows), sent(flows);
    for (FlowId flow = 1; flow <= flows; ++flow) {
      link.register_endpoint(flow, std::make_unique<RecordingChannel>(&seen[flow - 1]),
                             [](const Packet&) {});
    }
    for (FlowId flow : order) {
      const Packet p = flow_packet(flow);
      sent[flow - 1].push_back(p.id);
      link.send(p);
    }
    sim.run();
    for (FlowId flow = 1; flow <= flows; ++flow) {
      EXPECT_EQ(seen[flow - 1], sent[flow - 1]) << "flow " << flow;
      EXPECT_EQ(link.endpoint_stats(flow).delivered, sent[flow - 1].size()) << "flow " << flow;
    }
  }
}

TEST(LinkEndpointTest, SplitsStatsPerFlowAndSumsToAggregate) {
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  attach(link, 1, [](const Packet&) {});
  attach(link, 2, [](const Packet&) {});

  link.send(flow_packet(1, 500));
  link.send(flow_packet(1, 500));
  link.send(flow_packet(2, 700));
  sim.run();
  EXPECT_EQ(link.endpoint_stats(1).sent, 2u);
  EXPECT_EQ(link.endpoint_stats(1).delivered, 2u);
  EXPECT_EQ(link.endpoint_stats(1).bytes_delivered, 1000u);
  EXPECT_EQ(link.endpoint_stats(2).sent, 1u);
  EXPECT_EQ(link.endpoint_stats(2).bytes_delivered, 700u);
  EXPECT_EQ(link.stats().sent,
            link.endpoint_stats(1).sent + link.endpoint_stats(2).sent);
  EXPECT_EQ(link.stats().delivered,
            link.endpoint_stats(1).delivered + link.endpoint_stats(2).delivered);
}

TEST(LinkEndpointTest, TwoFlowsShareOneFifoQueue) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1ms per 1000-byte packet
  cfg.prop_delay = Duration::zero();
  Link link(sim, cfg);
  std::vector<FlowId> order;
  attach(link, 1, [&](const Packet& p) { order.push_back(p.flow); });
  attach(link, 2, [&](const Packet& p) { order.push_back(p.flow); });

  // Interleaved arrivals serialize through the ONE transmitter in FIFO
  // order — flow 2's packet waits behind flow 1's, not on a private queue.
  link.send(flow_packet(1));
  link.send(flow_packet(2));
  link.send(flow_packet(1));
  link.send(flow_packet(2));
  sim.run();
  EXPECT_EQ(order, (std::vector<FlowId>{1, 2, 1, 2}));
}

TEST(LinkEndpointTest, QueueOverflowDropsAttributeToTheArrivingFlow) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e3;  // slow: everything queues
  cfg.queue_capacity = 2;
  Link link(sim, cfg);
  RecordingTap tap1, tap2;
  attach(link, 1, [](const Packet&) {}, &tap1);
  attach(link, 2, [](const Packet&) {}, &tap2);

  // Flow 1 fills the shared queue; flow 2's arrivals are the ones tail-
  // dropped, and the drop lands in FLOW 2's stats and tap.
  link.send(flow_packet(1, 100));
  link.send(flow_packet(1, 100));
  link.send(flow_packet(2, 100));
  link.send(flow_packet(2, 100));
  sim.run();
  EXPECT_EQ(link.endpoint_stats(1).dropped_queue(), 0u);
  EXPECT_EQ(link.endpoint_stats(2).dropped_queue(), 2u);
  EXPECT_EQ(link.stats().dropped_queue(), 2u);
  EXPECT_TRUE(tap1.drops.empty());
  ASSERT_EQ(tap2.drops.size(), 2u);
  EXPECT_EQ(tap2.drops[0].cause.category, DropCategory::kQueueOverflow);
  EXPECT_EQ(link.endpoint_stats(1).delivered, 2u);
  EXPECT_EQ(link.endpoint_stats(2).delivered, 0u);
}

TEST(LinkEndpointDeathTest, RejectsDuplicateAndUnknownFlows) {
  sim::Simulator sim;
  Link link(sim, LinkConfig{});
  attach(link, 1, [](const Packet&) {});
  EXPECT_DEATH(attach(link, 1, [](const Packet&) {}), "already has an endpoint");
  EXPECT_DEATH(link.register_endpoint(2, nullptr, [](const Packet&) {}), "null channel");
  // Flows register consecutively from the first one: 3 cannot follow 1.
  EXPECT_DEATH(attach(link, 3, [](const Packet&) {}), "consecutive order");
  EXPECT_DEATH(link.endpoint_stats(7), "unregistered flow");
  EXPECT_DEATH(link.send(flow_packet(7)), "no endpoint");
  // Just outside the registered range [1, 2): flow 0 wraps below the first
  // flow, flow 2 is one past the last.
  EXPECT_DEATH(link.send(flow_packet(0)), "no endpoint");
  EXPECT_DEATH(link.send(flow_packet(2)), "no endpoint");
}

TEST(LinkDeathTest, RejectsBadConfig) {
  sim::Simulator sim;
  LinkConfig zero_rate;
  zero_rate.rate_bps = 0.0;
  EXPECT_DEATH(Link(sim, zero_rate), "rate");
  LinkConfig zero_queue;
  zero_queue.queue_capacity = 0;
  EXPECT_DEATH(Link(sim, zero_queue), "queue");
}

}  // namespace
}  // namespace hsr::net
