#include "tcp/connection.h"

#include <gtest/gtest.h>

#include <memory>

#include "model/padhye.h"
#include "trace/capture.h"
#include "util/rng.h"

namespace hsr::tcp {
namespace {

ConnectionConfig clean_config() {
  ConnectionConfig cfg;
  cfg.tcp.receiver_window = 64;
  cfg.tcp.delayed_ack_b = 2;
  cfg.downlink.rate_bps = 10e6;
  cfg.downlink.prop_delay = util::Duration::millis(20);
  cfg.downlink.queue_capacity = 200;
  cfg.uplink.rate_bps = 10e6;
  cfg.uplink.prop_delay = util::Duration::millis(20);
  cfg.uplink.queue_capacity = 200;
  return cfg;
}

TEST(ConnectionTest, LosslessFlowIsWindowLimited) {
  sim::Simulator sim;
  ConnectionConfig cfg = clean_config();
  cfg.downlink.rate_bps = 50e6;  // keep the path capacity above W_m/RTT
  Connection conn(sim, 1, cfg, std::make_unique<net::PerfectChannel>(),
                  std::make_unique<net::PerfectChannel>());
  conn.start();
  sim.run_until(util::TimePoint::from_seconds(30));

  // RTT ~= 40.5 ms (2x20ms prop + serialization); ceiling = W_m / RTT.
  const double rtt = 0.0405;
  const double ceiling = 64.0 / rtt;
  EXPECT_GT(conn.goodput_segments_per_s(), 0.85 * ceiling);
  EXPECT_LE(conn.goodput_segments_per_s(), 1.05 * ceiling);
  EXPECT_EQ(conn.sender().stats().timeouts, 0u);
  EXPECT_EQ(conn.receiver().stats().duplicate_segments, 0u);
}

TEST(ConnectionTest, NoLossNoRetransmissions) {
  sim::Simulator sim;
  Connection conn(sim, 1, clean_config(), std::make_unique<net::PerfectChannel>(),
                  std::make_unique<net::PerfectChannel>());
  conn.start();
  sim.run_until(util::TimePoint::from_seconds(10));
  EXPECT_EQ(conn.sender().stats().retransmissions, 0u);
  EXPECT_EQ(conn.receiver().stats().unique_segments,
            conn.receiver().stats().segments_received);
}

TEST(ConnectionTest, ReceiverStatsMatchLinkStats) {
  sim::Simulator sim;
  Connection conn(sim, 1, clean_config(), std::make_unique<net::PerfectChannel>(),
                  std::make_unique<net::PerfectChannel>());
  conn.start();
  sim.run_until(util::TimePoint::from_seconds(5));
  EXPECT_EQ(conn.downlink().stats().delivered,
            conn.receiver().stats().segments_received);
  EXPECT_EQ(conn.uplink().stats().delivered, conn.sender().stats().acks_received);
}

// Classic validation: simulated Reno goodput under Bernoulli loss should sit
// near the PFTK prediction in the small-p regime (PFTK's own empirical
// accuracy band).
class PftkValidation : public testing::TestWithParam<double> {};

TEST_P(PftkValidation, GoodputNearPftkPrediction) {
  const double p = GetParam();
  sim::Simulator sim;
  ConnectionConfig cfg = clean_config();
  cfg.tcp.receiver_window = 1000;  // effectively unlimited
  cfg.downlink.rate_bps = 100e6;
  cfg.uplink.rate_bps = 100e6;
  cfg.downlink.queue_capacity = 2000;
  cfg.uplink.queue_capacity = 2000;
  cfg.downlink.prop_delay = util::Duration::millis(50);
  cfg.uplink.prop_delay = util::Duration::millis(50);

  trace::FlowCapture cap;
  Connection conn(sim, 1, cfg,
                  std::make_unique<net::BernoulliChannel>(p, util::Rng(99)),
                  std::make_unique<net::PerfectChannel>(), &cap.data, &cap.acks);
  conn.start();
  sim.run_until(util::TimePoint::from_seconds(120));

  model::PadhyeInputs in;
  in.p = p;
  in.path.rtt_s = cap.estimated_rtt().to_seconds();
  in.path.t0_s = 0.4;
  in.path.b = 2;
  in.path.w_m = 1000;
  const double predicted = model::padhye_throughput_pps(in);
  const double measured = conn.goodput_segments_per_s();
  EXPECT_GT(measured, 0.6 * predicted);
  EXPECT_LT(measured, 1.4 * predicted);
}

INSTANTIATE_TEST_SUITE_P(LossRates, PftkValidation,
                         testing::Values(0.002, 0.005, 0.01));

TEST(ConnectionTest, AckBlackoutCausesSpuriousTimeout) {
  // Data path perfect; the ACK path dies completely for a 3-second window.
  // The sender must time out even though every data packet arrived — the
  // paper's spurious-RTO mechanism (Fig. 5) — and the receiver must see the
  // duplicate payload that the paper's methodology keys on.
  sim::Simulator sim;
  ConnectionConfig cfg = clean_config();
  auto blackout = std::make_unique<net::FunctionalChannel>(
      [](const net::Packet&, util::TimePoint now) {
        const bool dead = now >= util::TimePoint::from_seconds(5.0) &&
                          now < util::TimePoint::from_seconds(8.0);
        return dead ? 1.0 : 0.0;
      },
      [](const net::Packet&, util::TimePoint) { return util::Duration::zero(); },
      util::Rng(1));
  Connection conn(sim, 1, cfg, std::make_unique<net::PerfectChannel>(),
                  std::move(blackout));
  conn.start();
  sim.run_until(util::TimePoint::from_seconds(20));

  EXPECT_GE(conn.sender().stats().timeouts, 1u);
  EXPECT_GE(conn.receiver().stats().duplicate_segments, 1u);
  // The flow recovers after the blackout: new data delivered past it.
  EXPECT_GT(conn.receiver().stats().unique_segments, 1000u);
}

TEST(ConnectionTest, DataBlackoutCausesGenuineTimeoutAndRecovery) {
  sim::Simulator sim;
  ConnectionConfig cfg = clean_config();
  auto blackout = std::make_unique<net::FunctionalChannel>(
      [](const net::Packet&, util::TimePoint now) {
        const bool dead = now >= util::TimePoint::from_seconds(5.0) &&
                          now < util::TimePoint::from_seconds(8.0);
        return dead ? 1.0 : 0.0;
      },
      [](const net::Packet&, util::TimePoint) { return util::Duration::zero(); },
      util::Rng(1));
  Connection conn(sim, 1, cfg, std::move(blackout),
                  std::make_unique<net::PerfectChannel>());
  conn.start();
  sim.run_until(util::TimePoint::from_seconds(20));

  EXPECT_GE(conn.sender().stats().timeouts, 1u);
  EXPECT_GE(conn.sender().stats().max_backoff_seen, 2u);
  // Transfer continues after the blackout.
  const SeqNo final_delivered = conn.receiver().stats().highest_contiguous;
  EXPECT_GT(final_delivered, 10000u);
}

TEST(ConnectionTest, GoodputBpsConsistentWithSegments) {
  sim::Simulator sim;
  Connection conn(sim, 1, clean_config(), std::make_unique<net::PerfectChannel>(),
                  std::make_unique<net::PerfectChannel>());
  conn.start();
  sim.run_until(util::TimePoint::from_seconds(5));
  EXPECT_NEAR(conn.goodput_bps(),
              conn.goodput_segments_per_s() * 1400 * 8, 1.0);
}

TEST(ConnectionTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Simulator sim;
    ConnectionConfig cfg = clean_config();
    Connection conn(sim, 1, cfg,
                    std::make_unique<net::BernoulliChannel>(0.01, util::Rng(7)),
                    std::make_unique<net::BernoulliChannel>(0.005, util::Rng(8)));
    conn.start();
    sim.run_until(util::TimePoint::from_seconds(10));
    return conn.receiver().stats().unique_segments;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace hsr::tcp
