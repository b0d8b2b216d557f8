// Jain's index, fairness reports and burst-window goodput shares — computed
// from FlowCaptures alone, so synthetic captures pin the arithmetic and a
// real multi-flow run pins the wiring.
#include "analysis/fairness.h"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "radio/profiles.h"
#include "trace/capture.h"
#include "workload/multi_flow.h"

namespace hsr::analysis {
namespace {

using util::Duration;
using util::TimePoint;

TEST(JainIndexTest, EqualSharesScoreOne) {
  EXPECT_DOUBLE_EQ(jain_index({4.0, 4.0, 4.0, 4.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0.5}), 1.0);
}

TEST(JainIndexTest, OneHogScoresOneOverN) {
  EXPECT_DOUBLE_EQ(jain_index({9.0, 0.0, 0.0}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0, 0.0, 7.0, 0.0}), 1.0 / 5.0);
}

TEST(JainIndexTest, HandComputedMixedCase) {
  // x = {1, 2, 3}: (1+2+3)^2 / (3 * (1+4+9)) = 36 / 42.
  EXPECT_DOUBLE_EQ(jain_index({1.0, 2.0, 3.0}), 36.0 / 42.0);
}

TEST(JainIndexTest, DegenerateInputsReportOne) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);
}

// A capture with `delivered` delivered data segments at one-second spacing,
// plus `retx` retransmitted (delivered) segments, for share arithmetic.
trace::FlowCapture synthetic_capture(net::FlowId flow, unsigned delivered,
                                     unsigned retx) {
  trace::FlowCapture c;
  c.flow = flow;
  std::uint64_t id = 0;
  for (unsigned i = 0; i < delivered + retx; ++i) {
    net::Packet p;
    p.id = ++id;  // ids are per-capture join keys; dense from 1
    p.flow = flow;
    p.kind = net::PacketKind::kData;
    p.seq = i + 1;
    p.size_bytes = 1400;
    p.is_retransmission = i >= delivered;
    p.retx_count = p.is_retransmission ? 1 : 0;
    const TimePoint sent = TimePoint::from_seconds(static_cast<double>(i));
    c.data.on_send(p, sent);
    c.data.on_deliver(p, sent, sent + Duration::millis(50));
  }
  return c;
}

TEST(FairnessReportTest, SharesRetransmissionsAndJainFromSyntheticCaptures) {
  std::vector<trace::FlowCapture> captures;
  captures.push_back(synthetic_capture(1, 30, 0));
  captures.push_back(synthetic_capture(2, 10, 5));

  const FairnessReport report =
      fairness_report(captures, Duration::seconds(10));
  ASSERT_EQ(report.flows.size(), 2u);

  // Goodput counts UNIQUE segments (retransmissions carry new seqs here, so
  // they all count as distinct deliveries) normalized by the duration.
  EXPECT_DOUBLE_EQ(report.flows[0].goodput_pps, 3.0);
  EXPECT_DOUBLE_EQ(report.flows[1].goodput_pps, 1.5);
  EXPECT_DOUBLE_EQ(report.flows[0].goodput_share, 3.0 / 4.5);
  EXPECT_DOUBLE_EQ(report.flows[1].goodput_share, 1.5 / 4.5);

  EXPECT_EQ(report.flows[0].retransmissions, 0u);
  EXPECT_EQ(report.flows[1].retransmissions, 5u);
  EXPECT_DOUBLE_EQ(report.flows[1].retransmission_rate, 5.0 / 15.0);

  EXPECT_EQ(report.aggregate_data_sent, 45u);
  EXPECT_EQ(report.aggregate_retransmissions, 5u);
  EXPECT_DOUBLE_EQ(report.aggregate_retransmission_rate, 5.0 / 45.0);
  EXPECT_DOUBLE_EQ(report.jain, jain_index({3.0, 1.5}));
  EXPECT_LT(report.jain, 1.0);
}

TEST(FairnessReportTest, ZeroDurationUsesLongestCaptureSpan) {
  std::vector<trace::FlowCapture> captures;
  captures.push_back(synthetic_capture(1, 5, 0));   // spans ~4 s
  captures.push_back(synthetic_capture(2, 21, 0));  // spans ~20 s
  const FairnessReport by_span = fairness_report(captures);
  const FairnessReport by_duration =
      fairness_report(captures, captures[1].span());
  ASSERT_EQ(by_span.flows.size(), 2u);
  EXPECT_DOUBLE_EQ(by_span.flows[0].goodput_pps,
                   by_duration.flows[0].goodput_pps);
  EXPECT_DOUBLE_EQ(by_span.flows[1].goodput_pps,
                   by_duration.flows[1].goodput_pps);
}

TEST(DeliveredSharesTest, CountsOnlyArrivalsInsideTheWindow) {
  std::vector<trace::FlowCapture> captures;
  captures.push_back(synthetic_capture(1, 10, 0));  // arrivals at i + 0.05 s
  captures.push_back(synthetic_capture(2, 4, 0));

  // [2, 6) catches arrivals 2.05, 3.05, 4.05, 5.05 of flow 1 and 2.05, 3.05
  // of flow 2.
  const auto shares = delivered_shares(captures, TimePoint::from_seconds(2.0),
                                       TimePoint::from_seconds(6.0));
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_EQ(shares[0].delivered, 4u);
  EXPECT_EQ(shares[1].delivered, 2u);
  EXPECT_DOUBLE_EQ(shares[0].share, 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(shares[1].share, 2.0 / 6.0);
}

TEST(DeliveredSharesTest, EmptyWindowReportsZeros) {
  std::vector<trace::FlowCapture> captures;
  captures.push_back(synthetic_capture(1, 3, 0));
  const auto shares = delivered_shares(captures, TimePoint::from_seconds(100.0),
                                       TimePoint::from_seconds(101.0));
  ASSERT_EQ(shares.size(), 1u);
  EXPECT_EQ(shares[0].delivered, 0u);
  EXPECT_DOUBLE_EQ(shares[0].share, 0.0);
}

TEST(FairnessReportTest, RealMultiFlowScenarioIsPlausiblyFair) {
  workload::MultiFlowSpec spec;
  spec.profile = radio::telecom_3g_highspeed();
  spec.flows = 4;
  spec.duration = Duration::seconds(8);
  spec.seed = 12;
  workload::MultiFlowResult r = workload::run_multi_flow(spec);
  ASSERT_TRUE(r.status.is_ok());
  const FairnessReport report = fairness_report(r.captures, spec.duration);
  ASSERT_EQ(report.flows.size(), 4u);
  EXPECT_GE(report.jain, 0.25 - 1e-12);
  EXPECT_LE(report.jain, 1.0 + 1e-12);
  EXPECT_GT(report.aggregate_goodput_pps, 0.0);
  double share_sum = 0.0;
  for (const auto& f : report.flows) {
    share_sum += f.goodput_share;
    // The report's goodput matches the simulator's ground truth per flow.
    EXPECT_NEAR(f.goodput_pps, r.flows[f.flow - 1].goodput_pps, 1e-9);
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

}  // namespace
}  // namespace hsr::analysis
