// Failure injection: drive the full connection through pathological channel
// conditions and verify the stack never wedges, never violates its
// invariants, and always resumes when conditions clear.
#include <gtest/gtest.h>

#include <memory>

#include "net/channel.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "util/rng.h"

namespace hsr {
namespace {

using net::FunctionalChannel;
using net::Packet;
using net::PerfectChannel;
using util::Duration;
using util::Rng;
using util::TimePoint;

tcp::ConnectionConfig base_config() {
  tcp::ConnectionConfig cfg;
  cfg.tcp.receiver_window = 64;
  cfg.downlink.rate_bps = 10e6;
  cfg.downlink.prop_delay = Duration::millis(20);
  cfg.uplink.rate_bps = 10e6;
  cfg.uplink.prop_delay = Duration::millis(20);
  return cfg;
}

std::unique_ptr<FunctionalChannel> window_blackout(double from_s, double to_s) {
  return std::make_unique<FunctionalChannel>(
      [from_s, to_s](const Packet&, TimePoint now) {
        return (now >= TimePoint::from_seconds(from_s) &&
                now < TimePoint::from_seconds(to_s))
                   ? 1.0
                   : 0.0;
      },
      [](const Packet&, TimePoint) { return Duration::zero(); }, Rng(1));
}

TEST(FailureInjectionTest, SurvivesMinuteLongTotalBlackout) {
  // Both directions dead for a full minute: the sender must back off to the
  // 64T cap, stay alive, and resume afterwards.
  sim::Simulator sim;
  tcp::ConnectionConfig cfg = base_config();
  tcp::Connection conn(sim, 1, cfg, window_blackout(5, 65), window_blackout(5, 65));
  conn.start();
  sim.run_until(TimePoint::from_seconds(120));

  EXPECT_GE(conn.sender().stats().max_backoff_seen, 8u);
  EXPECT_LE(conn.sender().stats().max_backoff_seen, 64u);
  // The transfer resumed: far more delivered than the pre-blackout window.
  EXPECT_GT(conn.receiver().stats().unique_segments, 10000u);
  // Sequence invariant held throughout.
  EXPECT_LE(conn.sender().snd_una(), conn.sender().snd_next());
}

TEST(FailureInjectionTest, SurvivesRepeatedShortBlackouts) {
  // A blackout every 10 s: chronic interruption, no wedge.
  sim::Simulator sim;
  auto flicker = [] {
    return std::make_unique<FunctionalChannel>(
        [](const Packet&, TimePoint now) {
          const double t = now.to_seconds();
          return (t >= 5.0 && std::fmod(t, 10.0) < 1.5) ? 1.0 : 0.0;
        },
        [](const Packet&, TimePoint) { return Duration::zero(); }, Rng(1));
  };
  tcp::Connection conn(sim, 1, base_config(), flicker(), flicker());
  conn.start();
  sim.run_until(TimePoint::from_seconds(60));
  EXPECT_GE(conn.sender().stats().timeouts, 3u);
  EXPECT_GT(conn.receiver().stats().unique_segments, 5000u);
}

TEST(FailureInjectionTest, SurvivesHeavyRandomLossBothDirections) {
  sim::Simulator sim;
  tcp::ConnectionConfig cfg = base_config();
  tcp::Connection conn(sim, 1, cfg,
                       std::make_unique<net::BernoulliChannel>(0.15, Rng(3)),
                       std::make_unique<net::BernoulliChannel>(0.15, Rng(4)));
  conn.start();
  sim.run_until(TimePoint::from_seconds(60));
  // Brutal but not fatal: data still trickles through (liveness, not
  // throughput — 15 % bidirectional loss keeps Reno in near-constant
  // backoff).
  EXPECT_GT(conn.receiver().stats().unique_segments, 10u);
  EXPECT_GT(conn.sender().stats().timeouts, 0u);
}

TEST(FailureInjectionTest, SurvivesTinyQueue) {
  // A 2-packet DropTail queue forces constant overflow loss.
  sim::Simulator sim;
  tcp::ConnectionConfig cfg = base_config();
  cfg.downlink.queue_capacity = 2;
  tcp::Connection conn(sim, 1, cfg, std::make_unique<PerfectChannel>(),
                       std::make_unique<PerfectChannel>());
  conn.start();
  sim.run_until(TimePoint::from_seconds(30));
  EXPECT_GT(conn.downlink().stats().dropped_queue(), 0u);
  EXPECT_GT(conn.receiver().stats().unique_segments, 50u);
}

TEST(FailureInjectionTest, SurvivesExtremeDelayJitter) {
  // 0-500 ms of i.i.d. jitter: heavy reordering; cumulative ACKs must keep
  // the connection consistent (duplicates allowed, no deadlock).
  sim::Simulator sim;
  tcp::ConnectionConfig cfg = base_config();
  auto jittery = std::make_unique<net::JitterChannel>(
      std::make_unique<PerfectChannel>(), 0.100, 1.0, 0.5, Rng(5));
  tcp::Connection conn(sim, 1, cfg, std::move(jittery),
                       std::make_unique<PerfectChannel>());
  conn.start();
  sim.run_until(TimePoint::from_seconds(30));
  const auto& r = conn.receiver().stats();
  EXPECT_GT(r.unique_segments, 200u);
  // Reassembly never delivered a segment twice as unique.
  EXPECT_LE(r.unique_segments + r.duplicate_segments, r.segments_received);
  EXPECT_EQ(r.highest_contiguous, conn.receiver().rcv_next() - 1);
}

TEST(FailureInjectionTest, AsymmetricStarvationUplinkOnly) {
  // Uplink at 99 % loss for the whole run: almost no ACKs ever return, yet
  // the sender must not spin (bounded retransmissions via backoff).
  sim::Simulator sim;
  tcp::ConnectionConfig cfg = base_config();
  tcp::Connection conn(sim, 1, cfg, std::make_unique<PerfectChannel>(),
                       std::make_unique<net::BernoulliChannel>(0.99, Rng(6)));
  conn.start();
  sim.run_until(TimePoint::from_seconds(120));
  // Every RTO sends exactly one probe; with T >= 200 ms and doubling, 120 s
  // admits only a bounded number of transmissions.
  EXPECT_LT(conn.sender().stats().segments_sent, 2000u);
  EXPECT_GT(conn.sender().stats().timeouts, 5u);
}

TEST(FailureInjectionTest, FiniteTransferCompletesDespiteBlackout) {
  sim::Simulator sim;
  tcp::ConnectionConfig cfg = base_config();
  cfg.tcp.total_segments = 3000;
  tcp::Connection conn(sim, 1, cfg, window_blackout(2, 6), window_blackout(2, 6));
  conn.start();
  sim.run_until(TimePoint::from_seconds(60));
  EXPECT_TRUE(conn.sender().finished());
  EXPECT_EQ(conn.receiver().stats().highest_contiguous, 3000u);
}

TEST(FailureInjectionTest, MitigationsStackSurvivesChaos) {
  // All optional features on, under flicker + loss + jitter simultaneously.
  sim::Simulator sim;
  tcp::ConnectionConfig cfg = base_config();
  cfg.tcp.enable_frto = true;
  cfg.tcp.adaptive_delack = true;
  cfg.tcp.congestion_control = tcp::CongestionControl::kNewReno;
  tcp::Connection conn(
      sim, 1, cfg,
      std::make_unique<net::JitterChannel>(
          std::make_unique<net::BernoulliChannel>(0.03, Rng(7)), 0.02, 0.8, 0.2, Rng(8)),
      std::make_unique<net::BernoulliChannel>(0.05, Rng(9)));
  conn.start();
  sim.run_until(TimePoint::from_seconds(60));
  EXPECT_GT(conn.receiver().stats().unique_segments, 1000u);
  EXPECT_LE(conn.sender().snd_una(), conn.sender().snd_next());
}

}  // namespace
}  // namespace hsr
