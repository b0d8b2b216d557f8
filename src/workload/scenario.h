// Scenario assembly: builds and runs complete experiments (one TCP flow on
// a provider profile; TCP-vs-MPTCP comparisons) and returns the captures
// and ground truth. This is the piece that plays the role of the paper's
// field measurement campaign.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "mptcp/mptcp.h"
#include "radio/profiles.h"
#include "tcp/connection.h"
#include "trace/capture.h"
#include "util/status.h"
#include "util/time.h"

namespace hsr::workload {

using util::Duration;
using util::TimePoint;

struct FlowRunConfig {
  radio::ProviderProfile profile;
  Duration duration = Duration::seconds(60);
  std::uint64_t seed = 1;
  // TCP knobs (protocol-level, independent of the provider) — the shared
  // one-source-of-truth struct also carried by MultiFlowSpec senders and
  // MPTCP subflow setup.
  tcp::TcpOptions tcp;

  // Scripted fault plans, one per direction, layered as decorators over the
  // provider's organic channels (empty plans add no wrapper). Triggered
  // faults land in the capture's audit trail.
  fault::FaultPlan downlink_faults;  // data direction
  fault::FaultPlan uplink_faults;    // ACK direction
  // Watchdog: abort the run (Status in FlowRunResult::status) once the
  // simulator has executed this many events; 0 = unlimited. `duration` is
  // the sim-time budget; this bounds runaway event churn within it.
  std::uint64_t max_sim_events = 0;

  // Steady-state allocation probe window (see MultiFlowSpec::probe_begin):
  // when probe_end > probe_begin, FlowRunResult::steady_allocs /
  // steady_events report the deltas inside the window.
  TimePoint probe_begin = TimePoint::zero();
  TimePoint probe_end = TimePoint::zero();
};

struct FlowRunResult {
  // OK for a completed run. A watchdog abort yields kResourceExhausted with
  // a diagnostic; the partial capture/stats below are still populated so the
  // wedged state can be inspected.
  util::Status status;
  trace::FlowCapture capture;  // the wireshark-equivalent record
  // Ground truth from the stack, used to validate the analysis pipeline.
  tcp::SenderStats sender_stats;
  tcp::ReceiverStats receiver_stats;
  std::vector<tcp::SenderEvent> events;

  Duration duration;
  double goodput_pps = 0.0;
  double goodput_bps = 0.0;
  std::uint64_t bytes_captured = 0;  // both directions; Table I trace sizes
  std::uint64_t handoffs = 0;
  // Scripted faults that fired (== capture.faults.size(); 0 organic runs).
  std::uint64_t faults_injected = 0;

  // Simulator-core cost counters (events executed / scheduled, idle heap
  // entries) for perf reporting.
  std::uint64_t sim_events = 0;
  std::uint64_t sim_scheduled = 0;
  std::uint64_t sim_tombstones = 0;
  // Probe-window deltas (zero when the probe is disabled; see FlowRunConfig).
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_events = 0;
};

// TCP configuration used for a profile (exposed so analyses know b and W_m).
tcp::TcpConfig tcp_config_for(const FlowRunConfig& cfg);

// Runs a single bulk-download TCP flow over the profile for `duration`.
FlowRunResult run_flow(const FlowRunConfig& cfg);

// --- TCP vs MPTCP (Fig. 12) ---------------------------------------------------

struct MptcpComparison {
  double tcp_pps = 0.0;          // single-path TCP goodput
  double mptcp_pps = 0.0;        // 2-subflow MPTCP meta goodput
  double improvement = 0.0;      // (mptcp - tcp) / tcp
  std::uint64_t rescues = 0;     // backup mode only
  std::uint64_t useful_rescues = 0;
};

// Runs single-path TCP and a 2-subflow MPTCP connection over independent
// path instances of the same provider (the paper's "two flows sharing no
// bottleneck" approximation) and compares goodput over a fixed duration.
MptcpComparison run_mptcp_comparison(const radio::ProviderProfile& profile,
                                     Duration duration, std::uint64_t seed,
                                     mptcp::Mode mode = mptcp::Mode::kDuplex);

// The paper's exact Fig. 12 methodology: one large TCP flow of
// `total_segments` vs two parallel small flows of total_segments/2 each
// (which "can be regarded as two independent subflows of MPTCP"). Both run
// on the same radio environment (same handset); throughput is
// bytes/completion-time. In gap-dominated coverage a single large flow
// straddles dead zones and deep RTO backoff, which is where the paper's
// 283 % Telecom gain comes from.
MptcpComparison run_fixed_transfer_comparison(const radio::ProviderProfile& profile,
                                              std::uint64_t total_segments,
                                              std::uint64_t seed);

// A multi-run fixed-transfer sweep (Fig. 12 error bars): `runs` repetitions
// of run_fixed_transfer_comparison at seeds base_seed, base_seed+stride, ...
struct FixedTransferSweepSpec {
  radio::ProviderProfile profile;
  std::uint64_t total_segments = 2000;
  std::uint64_t base_seed = 1;
  std::uint64_t seed_stride = 101;
  std::uint64_t runs = 1;
  // Worker threads for sharding (0 = all hardware threads). Results are
  // byte-identical for ANY thread count: every constituent simulation is
  // independently seeded from the spec and lands in a pre-sized slot.
  unsigned threads = 0;
};

// Runs the sweep sharded across a util::ThreadPool. Each repetition's three
// simulations (one large flow, two small flows) are independent tasks, so
// the pool keeps all cores busy even when runs < threads. Entry r of the
// result equals run_fixed_transfer_comparison(profile, total_segments,
// base_seed + r * seed_stride) exactly.
std::vector<MptcpComparison> run_fixed_transfer_sweep(const FixedTransferSweepSpec& spec);

}  // namespace hsr::workload
