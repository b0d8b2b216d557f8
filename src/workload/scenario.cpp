#include "workload/scenario.h"

#include <functional>
#include <memory>

#include "sim/simulator.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/multi_flow.h"

namespace hsr::workload {

tcp::TcpConfig tcp_config_for(const FlowRunConfig& cfg) {
  return tcp::make_tcp_config(cfg.tcp, cfg.profile.receiver_window_segments);
}

FlowRunResult run_flow(const FlowRunConfig& cfg) {
  // Thin adapter over the shared-bottleneck path at N=1. The multi-flow
  // runner reproduces the historical single-flow assembly exactly for flow
  // 0 (same fork labels, same construction order), so the capture bytes are
  // pinned byte-identical to the pre-multi-flow implementation
  // (MultiFlowAdapterTest.GoldenDigestsUnchanged).
  MultiFlowSpec spec;
  spec.profile = cfg.profile;
  spec.duration = cfg.duration;
  spec.seed = cfg.seed;
  spec.max_sim_events = cfg.max_sim_events;
  spec.probe_begin = cfg.probe_begin;
  spec.probe_end = cfg.probe_end;
  MultiFlowSenderSpec sender;
  sender.tcp = cfg.tcp;
  sender.downlink_faults = cfg.downlink_faults;
  sender.uplink_faults = cfg.uplink_faults;
  spec.senders.push_back(std::move(sender));

  MultiFlowResult mr = run_multi_flow(spec);
  MultiFlowFlowResult& f = mr.flows.at(0);

  FlowRunResult out;
  out.status = std::move(mr.status);
  out.sender_stats = f.sender_stats;
  out.receiver_stats = f.receiver_stats;
  out.events = std::move(f.events);
  out.duration = cfg.duration;
  out.goodput_pps = f.goodput_pps;
  out.goodput_bps = f.goodput_bps;
  out.handoffs = mr.handoffs;
  out.faults_injected = f.faults_injected;
  out.sim_events = mr.sim_events;
  out.sim_scheduled = mr.sim_scheduled;
  out.sim_tombstones = mr.sim_tombstones;
  out.steady_allocs = mr.steady_allocs;
  out.steady_events = mr.steady_events;
  out.bytes_captured = f.bytes_captured;
  out.capture = std::move(mr.captures.at(0));
  return out;
}

MptcpComparison run_mptcp_comparison(const radio::ProviderProfile& profile,
                                     Duration duration, std::uint64_t seed,
                                     mptcp::Mode mode) {
  MptcpComparison out;

  // Baseline: single-path TCP.
  {
    FlowRunConfig cfg;
    cfg.profile = profile;
    cfg.duration = duration;
    cfg.seed = seed;
    out.tcp_pps = run_flow(cfg).goodput_pps;
  }

  // MPTCP: two subflows on the SAME radio environment (one phone, one cell
  // — the paper's paired flows ran on the same handset, so handoff outages
  // and coverage gaps hit both subflows together). Each subflow still has
  // its own queue, its own per-packet loss randomness and its own TCP state,
  // so the gain comes from window aggregation plus RTO-backoff
  // decorrelation: after a shared outage, whichever subflow's timer fires
  // first restarts the transfer while the other is still backing off.
  {
    sim::Simulator sim;
    util::Rng rng(util::splitmix64(seed) ^ 0x4d50544350ULL);  // "MPTCP"

    mptcp::MptcpConfig mc;
    mc.mode = mode;
    mc.set_subflow_options(tcp::TcpOptions{}, profile.receiver_window_segments);

    radio::RadioEnvironment env(profile.radio, rng.fork("radio"));

    std::vector<mptcp::PathSetup> paths;
    for (int i = 0; i < 2; ++i) {
      mptcp::PathSetup setup;
      setup.downlink = downlink_config(profile);
      setup.uplink = uplink_config(profile);
      setup.down_channel = env.make_channel(
          radio::Direction::kDownlink, rng.fork("down", static_cast<std::uint64_t>(i)));
      setup.up_channel = env.make_channel(
          radio::Direction::kUplink, rng.fork("up", static_cast<std::uint64_t>(i)));
      paths.push_back(std::move(setup));
    }

    mptcp::MptcpConnection conn(sim, /*flow_base=*/10, mc, std::move(paths));
    conn.start();
    sim.run_until(TimePoint::zero() + duration);
    out.mptcp_pps = conn.goodput_pps();
    out.rescues = conn.rescue_transmissions();
    out.useful_rescues = conn.useful_rescues();
  }

  out.improvement =
      out.tcp_pps > 0.0 ? (out.mptcp_pps - out.tcp_pps) / out.tcp_pps : 0.0;
  return out;
}

namespace {

// Simulation-time cap for fixed transfers; transfers still incomplete by
// then are scored at the cap (a conservative underestimate of the gain).
constexpr double kTransferCapSeconds = 1800.0;

// Runs the simulator until `done()` or the cap; returns elapsed seconds.
double run_until_done(sim::Simulator& sim, const std::function<bool()>& done) {
  double t = 0.0;
  while (t < kTransferCapSeconds && !done()) {
    t += 0.5;
    sim.run_until(TimePoint::from_seconds(t));
  }
  return t;
}

// One fixed-size transfer over a fresh environment: `segments` segments at
// `rng_seed`, returning segments/completion-time. The building block of both
// the single comparison and the sharded sweep — entirely self-contained, so
// any worker thread can run it for any (profile, segments, seed) triple.
double fixed_transfer_rate(const radio::ProviderProfile& profile,
                           std::uint64_t segments, std::uint64_t rng_seed) {
  net::reset_packet_ids();
  FlowRunConfig fc;
  fc.profile = profile;

  sim::Simulator sim;
  util::Rng rng(rng_seed);
  radio::RadioEnvironment env(profile.radio, rng.fork("radio"));
  tcp::ConnectionConfig cfg;
  cfg.tcp = tcp_config_for(fc);
  cfg.tcp.total_segments = segments;
  cfg.downlink = downlink_config(profile);
  cfg.uplink = uplink_config(profile);
  tcp::Connection conn(sim, 1, cfg,
                       env.make_channel(radio::Direction::kDownlink, rng.fork("d")),
                       env.make_channel(radio::Direction::kUplink, rng.fork("u")));
  conn.start();
  const double t = run_until_done(
      sim, [&] { return conn.receiver().stats().unique_segments >= segments; });
  return static_cast<double>(segments) / t;
}

// Seed of the i-th small flow (i in {0, 1}) of a comparison at `seed`.
std::uint64_t small_flow_seed(std::uint64_t seed, int i) {
  return util::splitmix64(seed + 31 * static_cast<std::uint64_t>(i + 1)) ^
         0x32464c4f57ULL;
}

MptcpComparison combine_fixed_transfer(double large_rate, double small0_rate,
                                       double small1_rate) {
  MptcpComparison out;
  out.tcp_pps = large_rate;
  // The combined throughput is the SUM of the two small flows' rates —
  // exactly the paper's "total throughput getting by these two flows".
  out.mptcp_pps = small0_rate + small1_rate;
  out.improvement =
      out.tcp_pps > 0.0 ? (out.mptcp_pps - out.tcp_pps) / out.tcp_pps : 0.0;
  return out;
}

}  // namespace

MptcpComparison run_fixed_transfer_comparison(const radio::ProviderProfile& profile,
                                              std::uint64_t total_segments,
                                              std::uint64_t seed) {
  // One large flow of `total_segments` vs two small flows of total/2 each,
  // over the same radio environment class (the paper's pairs come from
  // different points of its dataset). Short transfers often dodge the long
  // dead zones a large transfer cannot avoid, which is where China Telecom's
  // outsized gain comes from.
  const double large = fixed_transfer_rate(profile, total_segments, seed);
  const double small0 =
      fixed_transfer_rate(profile, total_segments / 2, small_flow_seed(seed, 0));
  const double small1 =
      fixed_transfer_rate(profile, total_segments / 2, small_flow_seed(seed, 1));
  return combine_fixed_transfer(large, small0, small1);
}

std::vector<MptcpComparison> run_fixed_transfer_sweep(const FixedTransferSweepSpec& spec) {
  // Shard at (repetition, flow) granularity: each repetition contributes
  // three independent simulations (the large flow and the two small flows),
  // every one fully determined by the spec and its index. Results land in
  // pre-sized slots, so claiming order — and therefore thread count — cannot
  // perturb the output.
  std::vector<double> rates(spec.runs * 3, 0.0);
  util::parallel_for(spec.threads, spec.runs * 3, [&](std::uint64_t idx) {
    const std::uint64_t r = idx / 3;
    const int part = static_cast<int>(idx % 3);
    const std::uint64_t seed = spec.base_seed + r * spec.seed_stride;
    rates[idx] = part == 0
                     ? fixed_transfer_rate(spec.profile, spec.total_segments, seed)
                     : fixed_transfer_rate(spec.profile, spec.total_segments / 2,
                                           small_flow_seed(seed, part - 1));
  });

  std::vector<MptcpComparison> out;
  out.reserve(spec.runs);
  for (std::uint64_t r = 0; r < spec.runs; ++r) {
    out.push_back(combine_fixed_transfer(rates[r * 3], rates[r * 3 + 1],
                                         rates[r * 3 + 2]));
  }
  return out;
}

}  // namespace hsr::workload
