#include "analysis/flow_analysis.h"

#include <gtest/gtest.h>

#include <memory>

#include "net/channel.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "util/rng.h"

namespace hsr::analysis {
namespace {

using trace::FlowCapture;
using util::Duration;
using util::TimePoint;

// Builder for hand-crafted captures: the methodology must reconstruct
// timeout structure from packet records alone, so these tests write the
// exact wire history the classifier sees.
class CaptureBuilder {
 public:
  // Sends a data segment; arrived_ms < 0 means lost.
  CaptureBuilder& data(SeqNo seq, double sent_ms, double arrived_ms) {
    net::Packet p;
    p.id = next_id_++;
    p.kind = net::PacketKind::kData;
    p.seq = seq;
    p.size_bytes = 1400;
    const TimePoint sent = at(sent_ms);
    cap_.data.on_send(p, sent);
    if (arrived_ms >= 0) {
      cap_.data.on_deliver(p, sent, at(arrived_ms));
    } else {
      cap_.data.on_drop(p, sent, net::DropCause::bernoulli());
    }
    return *this;
  }

  // Sends an ACK; arrived_ms < 0 means lost.
  CaptureBuilder& ack(SeqNo ack_next, double sent_ms, double arrived_ms) {
    net::Packet p;
    p.id = next_id_++;
    p.kind = net::PacketKind::kAck;
    p.ack_next = ack_next;
    p.size_bytes = 52;
    const TimePoint sent = at(sent_ms);
    cap_.acks.on_send(p, sent);
    if (arrived_ms >= 0) {
      cap_.acks.on_deliver(p, sent, at(arrived_ms));
    } else {
      cap_.acks.on_drop(p, sent, net::DropCause::bernoulli());
    }
    return *this;
  }

  const FlowCapture& capture() const { return cap_; }

 private:
  static TimePoint at(double ms) {
    return TimePoint::zero() + Duration::from_seconds(ms / 1000.0);
  }
  FlowCapture cap_;
  std::uint64_t next_id_ = 1;
};

TEST(ClassificationTest, TimerDrivenResendIsRto) {
  CaptureBuilder b;
  b.data(1, 0.0, -1)        // original lost
      .data(1, 1000.0, 30.0 + 1000.0)  // silent re-send after 1 s: RTO
      .ack(2, 1035.0, 1065.0);
  const auto rto = find_rto_retransmissions(b.capture());
  ASSERT_EQ(rto.size(), 1u);
  EXPECT_EQ(rto[0], 1u);  // second data transmission
  EXPECT_EQ(count_fast_retransmissions(b.capture()), 0u);
}

TEST(ClassificationTest, DupAckDrivenResendIsFastRetransmit) {
  CaptureBuilder b;
  // Window 1..5 sent; seq 1 lost; 2..5 delivered -> four dup ACKs for 1.
  b.data(1, 0.0, -1);
  for (int i = 2; i <= 5; ++i) {
    b.data(i, i - 1.0, 30.0 + i);
  }
  b.ack(1, 33.0, 63.0).ack(1, 34.0, 64.0).ack(1, 35.0, 65.0);
  // Fast retransmit fires exactly at the 3rd dup ACK's arrival.
  b.data(1, 65.0, 95.0);
  b.ack(6, 96.0, 126.0);
  EXPECT_EQ(count_fast_retransmissions(b.capture()), 1u);
  EXPECT_TRUE(find_rto_retransmissions(b.capture()).empty());
}

TEST(ClassificationTest, AckDrivenResendWithFewDupAcksIsNotFastRetx) {
  // Go-back-N slow-start resend: re-send of 2 immediately after a cumulative
  // ACK arrival, with fewer than 3 dup ACKs for it.
  CaptureBuilder b;
  b.data(1, 0.0, -1)
      .data(2, 1.0, -1)
      .data(1, 1000.0, 1030.0)   // RTO retx of 1
      .ack(2, 1032.0, 1062.0)    // recovery ACK for 1
      .data(2, 1062.0, 1092.0)   // go-back-N resend of 2, ACK-driven
      .ack(3, 1094.0, 1124.0);
  EXPECT_EQ(count_fast_retransmissions(b.capture()), 0u);
  const auto rto = find_rto_retransmissions(b.capture());
  ASSERT_EQ(rto.size(), 1u);  // only the retx of seq 1
  const FlowAnalysis a = analyze_flow(b.capture());
  ASSERT_EQ(a.timeout_sequences.size(), 1u);
  EXPECT_EQ(a.timeout_sequences[0].seq, 1u);
}

TEST(TimeoutSequenceTest, GenuineDataLossTimeout) {
  CaptureBuilder b;
  b.data(1, 0.0, -1)
      .data(1, 1000.0, 1030.0)
      .ack(2, 1032.0, 1062.0);
  const FlowAnalysis a = analyze_flow(b.capture());
  ASSERT_EQ(a.timeout_sequences.size(), 1u);
  const TimeoutSequence& ts = a.timeout_sequences[0];
  EXPECT_FALSE(ts.spurious);
  EXPECT_EQ(ts.num_timeouts, 1u);
  EXPECT_EQ(ts.retx_lost, 0u);
  EXPECT_TRUE(ts.recovered_observed);
  // Recovery: from the original send (CA end, t=0) to the ACK arrival.
  EXPECT_NEAR(ts.duration().to_seconds(), 1.062, 1e-9);
}

TEST(TimeoutSequenceTest, SpuriousTimeoutDetectedViaDeliveredOriginal) {
  CaptureBuilder b;
  // Original DELIVERED but its ACK was lost: the paper's spurious RTO.
  b.data(1, 0.0, 30.0)
      .ack(2, 31.0, -1)          // ACK lost
      .data(1, 1000.0, 1030.0)   // silent retransmission
      .ack(2, 1031.0, 1061.0);
  const FlowAnalysis a = analyze_flow(b.capture());
  ASSERT_EQ(a.timeout_sequences.size(), 1u);
  EXPECT_TRUE(a.timeout_sequences[0].spurious);
  EXPECT_DOUBLE_EQ(a.spurious_fraction, 1.0);
}

TEST(TimeoutSequenceTest, ConsecutiveTimeoutsWithBackoff) {
  CaptureBuilder b;
  b.data(1, 0.0, -1)
      .data(1, 1000.0, -1)       // first RTO retx, lost
      .data(1, 3000.0, 3030.0)   // second retx after 2T backoff
      .ack(2, 3032.0, 3062.0);
  const FlowAnalysis a = analyze_flow(b.capture());
  ASSERT_EQ(a.timeout_sequences.size(), 1u);
  const TimeoutSequence& ts = a.timeout_sequences[0];
  EXPECT_EQ(ts.num_timeouts, 2u);
  EXPECT_EQ(ts.retx_lost, 1u);
  EXPECT_DOUBLE_EQ(ts.retx_loss_rate(), 0.5);
  // backoff gap = 2 s => T = 1 s.
  EXPECT_NEAR(ts.backoff_gap.to_seconds(), 2.0, 1e-9);
  EXPECT_NEAR(a.mean_first_rto.to_seconds(), 1.0, 1e-9);
  EXPECT_NEAR(a.recovery_retx_loss_rate, 0.5, 1e-12);
}

TEST(TimeoutSequenceTest, TraceTruncatedMidRecovery) {
  CaptureBuilder b;
  b.data(1, 0.0, -1).data(1, 1000.0, -1);  // never recovers
  const FlowAnalysis a = analyze_flow(b.capture());
  ASSERT_EQ(a.timeout_sequences.size(), 1u);
  EXPECT_FALSE(a.timeout_sequences[0].recovered_observed);
}

TEST(TimeoutSequenceTest, TwoIndependentSequences) {
  CaptureBuilder b;
  b.data(1, 0.0, -1)
      .data(1, 1000.0, 1030.0)
      .ack(2, 1032.0, 1062.0)
      .data(2, 1062.0, 1092.0)
      .ack(3, 1094.0, 1124.0)
      .data(3, 1124.0, -1)
      .data(3, 2500.0, 2530.0)
      .ack(4, 2532.0, 2562.0);
  const FlowAnalysis a = analyze_flow(b.capture());
  ASSERT_EQ(a.timeout_sequences.size(), 2u);
  EXPECT_EQ(a.timeout_sequences[0].seq, 1u);
  EXPECT_EQ(a.timeout_sequences[1].seq, 3u);
  EXPECT_EQ(a.loss_indications, 2u);
  EXPECT_DOUBLE_EQ(a.timeout_probability, 1.0);
}

TEST(LossRateTest, FirstTransmissionVsAllTransmissions) {
  CaptureBuilder b;
  b.data(1, 0.0, -1)          // first tx of 1: lost
      .data(2, 1.0, 31.0)     // first tx of 2: ok
      .data(1, 1000.0, -1)    // retx of 1: lost (counts only in all-tx rate)
      .data(1, 3000.0, 3030.0)
      .ack(2, 3032.0, 3062.0);
  const FlowAnalysis a = analyze_flow(b.capture());
  EXPECT_DOUBLE_EQ(a.first_tx_loss_rate, 0.5);   // 1 of 2 firsts lost
  EXPECT_DOUBLE_EQ(a.data_loss_rate, 0.5);       // 2 of 4 transmissions lost
  EXPECT_EQ(a.first_transmissions, 2u);
}

TEST(LossRateTest, EventRatesSplitSpuriousFromData) {
  CaptureBuilder b;
  // One spurious timeout + one genuine data-loss timeout across 4 segments.
  b.data(1, 0.0, 30.0)
      .ack(2, 31.0, -1)
      .data(1, 1000.0, 1030.0)  // spurious RTO
      .ack(2, 1031.0, 1061.0)
      .data(2, 1061.0, 1091.0)
      .ack(3, 1093.0, 1123.0)
      .data(3, 1123.0, -1)
      .data(3, 2500.0, 2530.0)  // genuine RTO
      .ack(4, 2532.0, 2562.0)
      .data(4, 2562.0, 2592.0)
      .ack(5, 2594.0, 2624.0);
  const FlowAnalysis a = analyze_flow(b.capture());
  ASSERT_EQ(a.timeout_sequences.size(), 2u);
  EXPECT_EQ(a.loss_indications, 2u);
  // 4 first transmissions; all indications = 2/4; data-only = 1/4.
  EXPECT_DOUBLE_EQ(a.loss_event_rate_all, 0.5);
  EXPECT_DOUBLE_EQ(a.loss_event_rate_data, 0.25);
  EXPECT_DOUBLE_EQ(a.spurious_fraction, 0.5);
  EXPECT_GT(a.ack_burst_loss_episode, 0.0);
  EXPECT_LT(a.ack_burst_loss_episode, 1.0);
}

TEST(AckBurstTest, RoundEstimatorCountsAllLostRounds) {
  CaptureBuilder b;
  // Give the flow a well-defined RTT of ~60 ms via one delivered data+ack.
  b.data(1, 0.0, 30.0).ack(2, 30.0, 60.0);
  const Duration rtt = Duration::millis(60);
  // Round 1 (anchored at first ACK send, 30 ms): the ACK above survives.
  // A later round (anchored at 30 ms, 60 ms wide) where both ACKs die:
  b.ack(2, 212.0, -1).ack(2, 222.0, -1);
  // And a round where one of two survives:
  b.ack(3, 392.0, 422.0).ack(4, 402.0, -1);
  const double burst = estimate_ack_burst_loss(b.capture(), rtt);
  EXPECT_NEAR(burst, 1.0 / 3.0, 1e-9);
}

TEST(AckBurstTest, ZeroWhenNoAcksLost) {
  CaptureBuilder b;
  b.data(1, 0.0, 30.0).ack(2, 30.0, 60.0).ack(3, 90.0, 120.0);
  EXPECT_DOUBLE_EQ(estimate_ack_burst_loss(b.capture(), Duration::millis(60)), 0.0);
}

TEST(GoodputTest, BasicRates) {
  CaptureBuilder b;
  b.data(1, 0.0, 30.0)
      .data(2, 10.0, 40.0)
      .data(3, 20.0, 50.0)
      .ack(4, 52.0, 82.0);
  const FlowAnalysis a = analyze_flow(b.capture());
  EXPECT_EQ(a.unique_segments, 3u);
  EXPECT_NEAR(a.span.to_seconds(), 0.082, 1e-9);
  EXPECT_NEAR(a.goodput_pps, 3.0 / 0.082, 1e-6);
  EXPECT_NEAR(a.mean_rtt.to_seconds(), 0.060, 1e-9);
}

TEST(EmptyFlowTest, AnalyzeEmptyCaptureIsSafe) {
  trace::FlowCapture empty;
  const FlowAnalysis a = analyze_flow(empty);
  EXPECT_EQ(a.unique_segments, 0u);
  EXPECT_FALSE(a.has_timeouts());
  EXPECT_DOUBLE_EQ(a.timeout_probability, 0.0);
  EXPECT_DOUBLE_EQ(a.spurious_fraction, 0.0);
}

TEST(GroundTruthAgreementTest, TimeoutCountMatchesStackEvents) {
  // Run a real flow whose ACK path dies for 3 seconds; the trace pipeline
  // must reconstruct the same number of RTO events the stack logged, and
  // classify them as spurious (all data arrived).
  sim::Simulator sim;
  tcp::ConnectionConfig cfg;
  cfg.tcp.receiver_window = 64;
  cfg.downlink.rate_bps = 10e6;
  cfg.downlink.prop_delay = Duration::millis(20);
  cfg.uplink.rate_bps = 10e6;
  cfg.uplink.prop_delay = Duration::millis(20);
  auto blackout = std::make_unique<net::FunctionalChannel>(
      [](const net::Packet&, TimePoint now) {
        return (now >= TimePoint::from_seconds(5.0) &&
                now < TimePoint::from_seconds(8.0))
                   ? 1.0
                   : 0.0;
      },
      [](const net::Packet&, TimePoint) { return Duration::zero(); },
      util::Rng(1));
  trace::FlowCapture cap;
  tcp::Connection conn(sim, 1, cfg, std::make_unique<net::PerfectChannel>(),
                       std::move(blackout), &cap.data, &cap.acks);
  conn.start();
  sim.run_until(TimePoint::from_seconds(20));

  const FlowAnalysis a = analyze_flow(cap);
  unsigned analyzed_timeouts = 0;
  for (const auto& ts : a.timeout_sequences) analyzed_timeouts += ts.num_timeouts;
  EXPECT_EQ(analyzed_timeouts, conn.sender().stats().timeouts);
  ASSERT_GE(a.timeout_sequences.size(), 1u);
  for (const auto& ts : a.timeout_sequences) {
    EXPECT_TRUE(ts.spurious);  // data path was perfect throughout
  }
}

}  // namespace
}  // namespace hsr::analysis
