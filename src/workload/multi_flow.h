// Shared-bottleneck multi-flow scenarios: N concurrent TCP senders pushing
// through ONE bottleneck link pair — the cell every passenger's flow shares.
// One real DropTail queue multiplexes all flows, each attached as one
// net::Link endpoint per direction. Each flow keeps its own TCP state, its
// own capture, its own "access stub" channel (private radio randomness and
// scripted faults, owned by its endpoint), and its own per-flow LinkStats
// breakdown of the shared queue — so fairness and queue-overflow
// attribution are measurable per flow.
//
// run_flow (scenario.h) is a thin adapter over this path at N=1: flow 0
// uses the exact legacy seeding ("radio"/"chan-down"/"chan-up" forks), so
// single-flow captures are byte-identical to the pre-multi-flow output.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "net/link.h"
#include "radio/profiles.h"
#include "tcp/types.h"
#include "trace/capture.h"
#include "util/status.h"
#include "util/time.h"

namespace hsr::workload {

using util::Duration;
using util::TimePoint;

// The provider's bottleneck link pair: the downlink carries data through the
// profile's queue, the uplink carries ACKs through a 64-packet queue.
net::LinkConfig downlink_config(const radio::ProviderProfile& p);
net::LinkConfig uplink_config(const radio::ProviderProfile& p);

// Per-sender knobs of one flow in a shared-bottleneck scenario.
struct MultiFlowSenderSpec {
  // Protocol knobs — the same shared struct FlowRunConfig carries.
  tcp::TcpOptions tcp;
  // When this sender starts relative to t=0 (staggered arrivals). Flows
  // starting at zero begin synchronously, exactly like run_flow.
  Duration start_offset = Duration::zero();
  // Scripted faults on this flow's OWN access stub (not the shared queue).
  fault::FaultPlan downlink_faults;  // data direction
  fault::FaultPlan uplink_faults;    // ACK direction
};

struct MultiFlowSpec {
  radio::ProviderProfile profile;
  // Number of concurrent senders when `senders` is empty (all defaults);
  // otherwise senders.size() rules.
  unsigned flows = 2;
  Duration duration = Duration::seconds(60);
  std::uint64_t seed = 1;
  // Default stagger when `senders` is empty: flow i starts at i * stagger.
  // With explicit `senders`, each spec's start_offset is used as given.
  Duration start_stagger = Duration::zero();
  // Protocol knobs shared by all default-built senders.
  tcp::TcpOptions tcp;
  // Per-flow overrides; empty = `flows` identical senders.
  std::vector<MultiFlowSenderSpec> senders;
  // Watchdog: abort once the simulator executed this many events; 0 = off.
  std::uint64_t max_sim_events = 0;

  // Steady-state allocation probe: when probe_end > probe_begin, the heap
  // allocations (util::AllocProbe news) and simulator events executed
  // inside [probe_begin, probe_end] are reported in
  // MultiFlowResult::steady_allocs / steady_events. The probe counters only
  // tick in binaries that install the counting allocator
  // (HSRTCP_ALLOC_PROBE_DEFINE_GLOBALS — the alloc tests and
  // bench_hotpath); elsewhere steady_allocs reads 0 and only steady_events
  // is meaningful. The two probe events do not touch captures, so enabling
  // the window never perturbs the recorded bytes.
  TimePoint probe_begin = TimePoint::zero();
  TimePoint probe_end = TimePoint::zero();

  unsigned flow_count() const {
    return senders.empty() ? flows : static_cast<unsigned>(senders.size());
  }
  // The fully-resolved spec of flow i (defaults + stagger applied).
  MultiFlowSenderSpec resolved_sender(unsigned i) const;
};

// Ground truth and accounting of one flow in a finished scenario. The
// capture itself lives in MultiFlowResult::captures (same index) so the
// capture set can be serialized or analyzed as one contiguous archive.
struct MultiFlowFlowResult {
  net::FlowId flow = 0;  // wire id (1-based, == index + 1)
  Duration start_offset;
  tcp::SenderStats sender_stats;
  tcp::ReceiverStats receiver_stats;
  std::vector<tcp::SenderEvent> events;
  double goodput_pps = 0.0;
  double goodput_bps = 0.0;
  std::uint64_t bytes_captured = 0;
  std::uint64_t faults_injected = 0;
  // This flow's share of the shared bottleneck (drops per cause included).
  net::LinkStats downlink_stats;
  net::LinkStats uplink_stats;
};

struct MultiFlowResult {
  // OK for a completed run; kResourceExhausted on a watchdog abort (partial
  // results below are still populated).
  util::Status status;
  std::vector<MultiFlowFlowResult> flows;
  // Per-flow captures, parallel to `flows` (captures[i].flow == i + 1).
  std::vector<trace::FlowCapture> captures;
  // Aggregate stats of the shared links (sum over flows by construction).
  net::LinkStats downlink_aggregate;
  net::LinkStats uplink_aggregate;
  Duration duration;
  std::uint64_t handoffs = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t sim_scheduled = 0;
  std::uint64_t sim_tombstones = 0;
  // Deltas over the spec's [probe_begin, probe_end] window (zero when the
  // probe is disabled): heap allocations observed by util::AllocProbe and
  // events the simulator executed. The zero-allocs-per-event gates divide
  // these two.
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_events = 0;
};

// Runs the scenario: one Simulator, one RadioEnvironment (all flows ride the
// same train — handoffs and coverage gaps hit everyone together), one
// bottleneck link pair, N sender/receiver stacks. Deterministic: the result
// is a pure function of the spec.
MultiFlowResult run_multi_flow(const MultiFlowSpec& spec);

// --- Fairness sweeps (Jain-vs-N corpora) -----------------------------------

// One scenario per entry of flow_counts, sharded across a thread pool.
// Scenario s runs flow_counts[s] flows at seed base_seed + s * seed_stride.
// Results land in pre-sized slots, so the output — and any corpus written
// from it — is byte-identical for EVERY thread count.
struct MultiFlowSweepSpec {
  radio::ProviderProfile profile;
  std::vector<unsigned> flow_counts;  // e.g. {2, 4, 8, 16}
  Duration duration = Duration::seconds(30);
  std::uint64_t base_seed = 1;
  std::uint64_t seed_stride = 101;
  Duration start_stagger = Duration::zero();
  tcp::TcpOptions tcp;
  // Optional scripted handoff burst: a downlink blackout hitting every
  // flow's access stub over [burst_begin, burst_end). Equal bounds = none.
  TimePoint burst_begin = TimePoint::zero();
  TimePoint burst_end = TimePoint::zero();
  std::uint64_t max_sim_events = 0;
  // Worker threads (0 = all hardware threads); does not affect the bytes.
  unsigned threads = 0;

  // The spec of scenario s — exposed so single scenarios can be reproduced.
  MultiFlowSpec scenario(std::size_t s) const;
};

std::vector<MultiFlowResult> run_multi_flow_sweep(const MultiFlowSweepSpec& spec);

// Flattens the sweep's captures in scenario order (scenario boundaries are
// recoverable: each scenario restarts flow ids at 1), ready for
// trace::save_capture_archive.
std::vector<trace::FlowCapture> sweep_captures(std::vector<MultiFlowResult>&& results);

}  // namespace hsr::workload
