// Scripted fault injection: directive matching, decorator behaviour over an
// inner channel, audit trail, and the headline acceptance scenario — a
// FaultPlan that kills every ACK of one round forces a timeout the analysis
// layer classifies as SPURIOUS, deterministically.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/flow_analysis.h"
#include "net/channel.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "trace/capture.h"
#include "trace/trace_io.h"
#include "util/rng.h"

namespace hsr::fault {
namespace {

using net::Packet;
using net::PerfectChannel;
using util::Duration;
using util::TimePoint;

Packet data_packet(net::SeqNo seq, bool retx = false) {
  Packet p;
  p.id = seq;
  p.kind = net::PacketKind::kData;
  p.seq = seq;
  p.is_retransmission = retx;
  p.size_bytes = 1400;
  return p;
}

Packet ack_packet(net::SeqNo ack_next) {
  Packet p;
  p.id = 1000 + ack_next;
  p.kind = net::PacketKind::kAck;
  p.ack_next = ack_next;
  p.size_bytes = 52;
  return p;
}

// --- Directive matching -------------------------------------------------------

TEST(FaultDirectiveTest, KindFilterSelectsDataVsAck) {
  FaultDirective d;
  d.kind = FaultDirective::KindFilter::kAck;
  EXPECT_TRUE(d.matches(ack_packet(5), TimePoint::zero(), 0));
  EXPECT_FALSE(d.matches(data_packet(5), TimePoint::zero(), 0));
  d.kind = FaultDirective::KindFilter::kData;
  EXPECT_FALSE(d.matches(ack_packet(5), TimePoint::zero(), 0));
  EXPECT_TRUE(d.matches(data_packet(5), TimePoint::zero(), 0));
}

TEST(FaultDirectiveTest, TimeWindowIsHalfOpen) {
  FaultDirective d;
  d.window_begin = TimePoint::from_seconds(1);
  d.window_end = TimePoint::from_seconds(2);
  EXPECT_FALSE(d.matches(data_packet(1), TimePoint::from_seconds(0.999), 0));
  EXPECT_TRUE(d.matches(data_packet(1), TimePoint::from_seconds(1.0), 0));
  EXPECT_TRUE(d.matches(data_packet(1), TimePoint::from_seconds(1.999), 0));
  EXPECT_FALSE(d.matches(data_packet(1), TimePoint::from_seconds(2.0), 0));
}

TEST(FaultDirectiveTest, SeqRangeUsesAckNextForAcks) {
  FaultDirective d;
  d.seq_min = 2;
  d.seq_max = 7;
  EXPECT_TRUE(d.matches(ack_packet(2), TimePoint::zero(), 0));
  EXPECT_TRUE(d.matches(ack_packet(7), TimePoint::zero(), 0));
  EXPECT_FALSE(d.matches(ack_packet(8), TimePoint::zero(), 0));
  EXPECT_TRUE(d.matches(data_packet(4), TimePoint::zero(), 0));
  EXPECT_FALSE(d.matches(data_packet(1), TimePoint::zero(), 0));
}

TEST(FaultDirectiveTest, RetransmissionFlagAndTriggerBudget) {
  FaultDirective d;
  d.only_retransmissions = true;
  d.max_triggers = 2;
  EXPECT_FALSE(d.matches(data_packet(1, /*retx=*/false), TimePoint::zero(), 0));
  EXPECT_TRUE(d.matches(data_packet(1, /*retx=*/true), TimePoint::zero(), 0));
  EXPECT_TRUE(d.matches(data_packet(1, /*retx=*/true), TimePoint::zero(), 1));
  // Budget exhausted: the directive goes quiet.
  EXPECT_FALSE(d.matches(data_packet(1, /*retx=*/true), TimePoint::zero(), 2));
}

// --- Injector decorator -------------------------------------------------------

TEST(FaultInjectorTest, DropsMatchingPacketsAndAudits) {
  FaultPlan plan;
  plan.kill_ack_range(2, 3);
  FaultInjector inj(plan, std::make_unique<PerfectChannel>());
  std::vector<trace::FaultRecord> audit;
  inj.set_audit(&audit, 'A');

  const net::ChannelVerdict first = inj.decide(ack_packet(2), TimePoint::from_seconds(1));
  EXPECT_TRUE(first.dropped);
  EXPECT_EQ(first.cause, net::DropCause::scripted(0));
  EXPECT_TRUE(inj.decide(ack_packet(3), TimePoint::from_seconds(2)).dropped);
  EXPECT_FALSE(inj.decide(ack_packet(4), TimePoint::from_seconds(3)).dropped);
  EXPECT_FALSE(inj.decide(data_packet(2), TimePoint::from_seconds(4)).dropped);

  EXPECT_EQ(inj.faults_triggered(), 2u);
  EXPECT_EQ(inj.triggers(0), 2u);
  ASSERT_EQ(audit.size(), 2u);
  EXPECT_EQ(audit[0].direction, 'A');
  EXPECT_EQ(audit[0].action, 'X');
  EXPECT_EQ(audit[0].seq, 2u);
  EXPECT_EQ(audit[0].label, "ack-round");
  EXPECT_EQ(audit[1].when, TimePoint::from_seconds(2));
}

TEST(FaultInjectorTest, DropBudgetStopsFiring) {
  FaultPlan plan;
  plan.drop_retransmissions(2);
  FaultInjector inj(plan, std::make_unique<PerfectChannel>());

  EXPECT_TRUE(inj.decide(data_packet(5, true), TimePoint::zero()).dropped);
  EXPECT_TRUE(inj.decide(data_packet(5, true), TimePoint::zero()).dropped);
  // Third retransmission is spared: max_triggers reached.
  EXPECT_FALSE(inj.decide(data_packet(5, true), TimePoint::zero()).dropped);
  EXPECT_EQ(inj.faults_triggered(), 2u);
}

TEST(FaultInjectorTest, DelaysAccumulateAcrossDirectives) {
  FaultPlan plan;
  plan.delay_spike(TimePoint::zero(), TimePoint::from_seconds(10), Duration::millis(40));
  plan.delay_spike(TimePoint::zero(), TimePoint::from_seconds(10), Duration::millis(60));
  FaultInjector inj(plan, std::make_unique<PerfectChannel>());
  std::vector<trace::FaultRecord> audit;
  inj.set_audit(&audit, 'D');

  EXPECT_EQ(inj.decide(data_packet(1), TimePoint::from_seconds(1)).extra_delay,
            Duration::millis(100));
  EXPECT_EQ(inj.decide(data_packet(2), TimePoint::from_seconds(20)).extra_delay,
            Duration::zero());
  ASSERT_EQ(audit.size(), 2u);
  EXPECT_EQ(audit[0].action, 'L');
  EXPECT_EQ(audit[0].delay, Duration::millis(40));
}

TEST(FaultInjectorTest, DuplicatesCountTowardLinkStats) {
  sim::Simulator sim;
  FaultPlan plan;
  plan.duplicate_next(3, /*copies=*/1);

  net::LinkConfig cfg;
  cfg.rate_bps = 10e6;
  cfg.prop_delay = Duration::millis(5);
  net::Link link(sim, cfg);
  unsigned arrivals = 0;
  link.register_endpoint(
      0, std::make_unique<FaultInjector>(plan, std::make_unique<PerfectChannel>()),
      [&arrivals](const Packet&) { ++arrivals; });

  for (net::SeqNo s = 1; s <= 5; ++s) link.send(data_packet(s));
  sim.run_until(TimePoint::from_seconds(1));

  // First three packets duplicated once each: 5 sends, 8 arrivals.
  EXPECT_EQ(link.stats().sent, 5u);
  EXPECT_EQ(link.stats().injected_duplicates, 3u);
  EXPECT_EQ(link.stats().delivered, 8u);
  EXPECT_EQ(arrivals, 8u);
}

TEST(FaultInjectorTest, SparedPacketsStillSeeInnerChannel) {
  // Inner channel drops everything; the plan only drops ACKs. Data packets
  // must still die by the inner channel's hand.
  FaultPlan plan;
  plan.kill_acks(TimePoint::zero(), TimePoint::max());
  auto always_drop = std::make_unique<net::FunctionalChannel>(
      [](const Packet&, TimePoint) { return 1.0; },
      [](const Packet&, TimePoint) { return Duration::zero(); }, util::Rng(1));
  FaultInjector inj(plan, std::move(always_drop));
  std::vector<trace::FaultRecord> audit;
  inj.set_audit(&audit, 'A');

  const net::ChannelVerdict organic = inj.decide(data_packet(1), TimePoint::zero());
  EXPECT_TRUE(organic.dropped);
  EXPECT_FALSE(organic.cause.is_scripted());  // inner cause passes through
  EXPECT_EQ(organic.cause.category, net::DropCategory::kFunctionalRadio);
  EXPECT_TRUE(audit.empty());  // organic loss, not a scripted fault
  const net::ChannelVerdict scripted = inj.decide(ack_packet(1), TimePoint::zero());
  EXPECT_TRUE(scripted.dropped);
  EXPECT_TRUE(scripted.cause.is_scripted());
  EXPECT_EQ(audit.size(), 1u);
}

// --- The paper's mechanism, scripted ------------------------------------------

tcp::ConnectionConfig small_round_config() {
  tcp::ConnectionConfig cfg;
  cfg.tcp.receiver_window = 6;
  cfg.tcp.delayed_ack_b = 1;
  cfg.tcp.initial_cwnd = 6.0;
  cfg.tcp.total_segments = 18;
  cfg.downlink.rate_bps = 10e6;
  cfg.downlink.prop_delay = Duration::millis(20);
  cfg.uplink.rate_bps = 10e6;
  cfg.uplink.prop_delay = Duration::millis(20);
  return cfg;
}

// Runs the scripted ACK-burst-kill scenario and returns the serialized
// capture (for determinism comparisons) plus the analysis.
struct SpuriousRun {
  std::string serialized;
  analysis::FlowAnalysis analysis;
  std::uint64_t faults = 0;
};

SpuriousRun run_scripted_spurious() {
  net::reset_packet_ids();  // byte-identical captures across repeat runs
  sim::Simulator sim;
  trace::FlowCapture capture;
  capture.flow = 1;

  // Perfect data path; kill every ACK in the first 100 ms — the whole first
  // round (ACKs arrive around t = 40 ms), but not the recovery ACK that
  // follows the RTO retransmission (RTO >= 200 ms).
  FaultPlan plan;
  plan.kill_acks(TimePoint::zero(), TimePoint::from_seconds(0.1));
  auto injector =
      std::make_unique<FaultInjector>(plan, std::make_unique<PerfectChannel>());
  injector->set_audit(&capture.faults, 'A');

  tcp::Connection conn(sim, 1, small_round_config(),
                       std::make_unique<PerfectChannel>(), std::move(injector),
                       &capture.data, &capture.acks);
  conn.start();
  sim.run_until(TimePoint::from_seconds(6));

  SpuriousRun out;
  out.analysis = analysis::analyze_flow(capture);
  out.faults = capture.faults.size();
  std::ostringstream ss;
  trace::write_flow_capture(ss, capture);
  out.serialized = ss.str();
  return out;
}

TEST(ScriptedSpuriousTimeoutTest, AckBurstKillForcesSpuriousTimeout) {
  const SpuriousRun run = run_scripted_spurious();

  // Every ACK of the first round died by script (delayed_ack_b = 1 => one
  // ACK per data packet, 6 in the round).
  EXPECT_GE(run.faults, 6u);

  // The analysis layer, looking only at the capture, sees a timeout sequence
  // and classifies it spurious: the original copies reached the receiver.
  ASSERT_TRUE(run.analysis.has_timeouts());
  EXPECT_TRUE(run.analysis.timeout_sequences.front().spurious);
  EXPECT_DOUBLE_EQ(run.analysis.spurious_fraction, 1.0);
}

TEST(ScriptedSpuriousTimeoutTest, ByteIdenticalAcrossRuns) {
  const SpuriousRun a = run_scripted_spurious();
  const SpuriousRun b = run_scripted_spurious();
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.serialized, b.serialized);  // byte-for-byte, audit trail included
  EXPECT_NE(a.serialized.find("\nF A "), std::string::npos)
      << "audit records missing from the serialized capture";
}

TEST(ScriptedRecoveryStallTest, RetransmissionDropsPinQ) {
  // Lose segment 10's first copy, then the next two retransmissions: the
  // recovery stalls exactly as the paper's q parameter describes, and the
  // analysis measures a nonzero in-recovery retransmit loss rate.
  sim::Simulator sim;
  trace::FlowCapture capture;
  capture.flow = 1;

  FaultPlan plan;
  plan.drop_segment_range(10, 10, 1).drop_retransmissions(2);
  auto injector =
      std::make_unique<FaultInjector>(plan, std::make_unique<PerfectChannel>());
  injector->set_audit(&capture.faults, 'D');

  tcp::ConnectionConfig cfg = small_round_config();
  cfg.tcp.total_segments = UINT64_MAX;  // unbounded flow
  tcp::Connection conn(sim, 1, cfg, std::move(injector),
                       std::make_unique<PerfectChannel>(), &capture.data, &capture.acks);
  conn.start();
  sim.run_until(TimePoint::from_seconds(20));

  EXPECT_EQ(capture.faults.size(), 3u);  // 1 first copy + 2 retransmissions
  const analysis::FlowAnalysis fa = analysis::analyze_flow(capture);
  ASSERT_TRUE(fa.has_timeouts());
  EXPECT_GT(fa.recovery_retx_loss_rate, 0.0);
  // The flow recovered once the script ran out of ammunition.
  EXPECT_GT(fa.unique_segments, 100u);
}

}  // namespace
}  // namespace hsr::fault
