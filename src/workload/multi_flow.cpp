#include "workload/multi_flow.h"

#include <memory>
#include <string>
#include <utility>

#include "net/channel.h"
#include "radio/environment.h"
#include "sim/simulator.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"
#include "util/alloc_probe.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hsr::workload {

namespace {

// One flow's TCP endpoints. Heap-owned so the registered Link receivers can
// capture a stable raw pointer (the vector of stacks may move around).
struct FlowStack {
  std::unique_ptr<tcp::TcpReceiver> receiver;
  std::unique_ptr<tcp::TcpSender> sender;
};

}  // namespace

net::LinkConfig downlink_config(const radio::ProviderProfile& p) {
  net::LinkConfig cfg;
  cfg.rate_bps = p.downlink_rate_bps;
  cfg.prop_delay = p.core_delay;
  cfg.queue_capacity = p.queue_capacity;
  cfg.name = p.name + "/down";
  return cfg;
}

net::LinkConfig uplink_config(const radio::ProviderProfile& p) {
  net::LinkConfig cfg;
  cfg.rate_bps = p.uplink_rate_bps;
  cfg.prop_delay = p.core_delay;
  cfg.queue_capacity = 64;
  cfg.name = p.name + "/up";
  return cfg;
}

MultiFlowSenderSpec MultiFlowSpec::resolved_sender(unsigned i) const {
  if (!senders.empty()) {
    HSR_CHECK_MSG(i < senders.size(), "sender index out of range");
    return senders[i];
  }
  MultiFlowSenderSpec s;
  s.tcp = tcp;
  s.start_offset = start_stagger * static_cast<std::int64_t>(i);
  return s;
}

MultiFlowResult run_multi_flow(const MultiFlowSpec& spec) {
  const unsigned n = spec.flow_count();
  HSR_CHECK_MSG(n >= 1, "multi-flow scenario needs at least one sender");

  // Fresh ids per scenario: serialized captures must depend only on the
  // spec, not on which scenarios this worker thread ran before.
  net::reset_packet_ids();
  sim::Simulator sim;
  sim.set_event_budget(spec.max_sim_events);
  util::Rng rng(spec.seed);

  // ONE radio environment: all flows ride the same train through the same
  // cells, so handoffs and coverage gaps hit everyone together (which is
  // exactly what makes handoff-burst fairness interesting).
  radio::RadioEnvironment env(spec.profile.radio, rng.fork("radio"));

  const net::LinkConfig down_cfg = downlink_config(spec.profile);
  const net::LinkConfig up_cfg = uplink_config(spec.profile);

  MultiFlowResult out;
  out.duration = spec.duration;
  out.captures.resize(n);
  out.flows.resize(n);

  std::vector<MultiFlowSenderSpec> resolved;
  resolved.reserve(n);
  for (unsigned i = 0; i < n; ++i) resolved.push_back(spec.resolved_sender(i));

  // The shared bottleneck pair: ONE DropTail queue and transmitter per
  // direction, multiplexing every flow.
  net::Link downlink(sim, down_cfg);
  net::Link uplink(sim, up_cfg);

  std::vector<FlowStack> stacks(n);
  // Peak pending-event estimate for the queue pre-size: every in-flight
  // data segment and every in-flight ACK carries one scheduled delivery
  // event (bounded per flow by the receiver window), plus each flow's RTO
  // and delayed-ACK timers and a margin for link-serialization and radio
  // bookkeeping events.
  std::size_t expected_pending = 128;
  for (unsigned i = 0; i < n; ++i) {
    const net::FlowId flow = i + 1;
    trace::FlowCapture& capture = out.captures[i];
    capture.flow = flow;
    // Pre-size for this flow's fair share of the bottleneck so steady-state
    // recording never reallocates mid-simulation (an over-estimate for
    // unfair flows is harmless — reserve_for clamps).
    const double share = down_cfg.rate_bps / static_cast<double>(n);
    capture.reserve_for(spec.duration, share, resolved[i].tcp.mss_bytes);

    // The flow's access stub behind the shared queue: its channel pair
    // draws from its own fork of the scenario seed and carries its own
    // scripted faults. Flow 0 keeps the legacy single-flow fork labels
    // ("chan-down"/"chan-up", no index), which is what makes the run_flow
    // N=1 adapter byte-identical to the historical single-flow path — note
    // fork(label) and fork(label, 0) are DIFFERENT streams.
    std::unique_ptr<net::ChannelModel> down = env.make_channel(
        radio::Direction::kDownlink,
        i == 0 ? rng.fork("chan-down") : rng.fork("chan-down", i));
    std::unique_ptr<net::ChannelModel> up = env.make_channel(
        radio::Direction::kUplink,
        i == 0 ? rng.fork("chan-up") : rng.fork("chan-up", i));
    if (!resolved[i].downlink_faults.empty() ||
        !resolved[i].uplink_faults.empty()) {
      // The injectors append an audit record per triggered fault on the
      // packet drop/delay path; pre-size the trail so steady-state fault
      // churn (scripted blackout bursts) does not reallocate mid-run.
      // Overflow beyond the tranche falls back to geometric growth.
      capture.faults.reserve(4096);
    }
    if (!resolved[i].downlink_faults.empty()) {
      auto injector = std::make_unique<fault::FaultInjector>(
          resolved[i].downlink_faults, std::move(down));
      injector->set_audit(&capture.faults, 'D');
      down = std::move(injector);
    }
    if (!resolved[i].uplink_faults.empty()) {
      auto injector = std::make_unique<fault::FaultInjector>(
          resolved[i].uplink_faults, std::move(up));
      injector->set_audit(&capture.faults, 'A');
      up = std::move(injector);
    }

    const tcp::TcpConfig tcfg = tcp::make_tcp_config(
        resolved[i].tcp, spec.profile.receiver_window_segments);
    expected_pending += 2 * static_cast<std::size_t>(tcfg.receiver_window) + 8;
    HSR_CHECK_MSG(tcfg.delayed_ack_b >= 1, "delayed_ack_b must be >= 1");
    auto ack_tx = [&uplink](net::Packet p) { uplink.send(std::move(p)); };
    static_assert(tcp::PacketSendFn::holds_inline<decltype(ack_tx)>(),
                  "ACK send closure outgrew the PacketSendFn SBO");
    stacks[i].receiver =
        std::make_unique<tcp::TcpReceiver>(sim, tcfg, flow, std::move(ack_tx));
    auto data_tx = [&downlink](net::Packet p) { downlink.send(std::move(p)); };
    static_assert(tcp::PacketSendFn::holds_inline<decltype(data_tx)>(),
                  "data send closure outgrew the PacketSendFn SBO");
    stacks[i].sender =
        std::make_unique<tcp::TcpSender>(sim, tcfg, flow, std::move(data_tx));

    // Pre-size the sender's diagnostic series for this flow's fair share of
    // the bottleneck — same contract as the capture reserve above: no vector
    // growth once the flow reaches steady state.
    stacks[i].sender->reserve_for(spec.duration, share);

    // The flow's endpoints. The closures must stay inside the Receiver SBO:
    // a heap fallback here would put an allocation on every delivery.
    auto data_endpoint = [r = stacks[i].receiver.get()](const net::Packet& p) {
      r->on_data(p);
    };
    static_assert(net::Link::Receiver::holds_inline<decltype(data_endpoint)>(),
                  "data endpoint outgrew the Link::Receiver SBO; "
                  "per-packet delivery would heap-allocate");
    downlink.register_endpoint(flow, std::move(down), std::move(data_endpoint),
                               &capture.data);

    auto ack_endpoint = [s = stacks[i].sender.get()](const net::Packet& p) {
      s->on_ack(p);
    };
    static_assert(net::Link::Receiver::holds_inline<decltype(ack_endpoint)>(),
                  "ACK endpoint outgrew the Link::Receiver SBO; "
                  "per-packet delivery would heap-allocate");
    uplink.register_endpoint(flow, std::move(up), std::move(ack_endpoint),
                             &capture.acks);
  }
  sim.reserve_events(expected_pending);

  // Staggered starts: offset-zero flows start synchronously before the
  // event loop (exactly like the legacy single-flow path), later arrivals
  // are scheduled into the simulation.
  for (unsigned i = 0; i < n; ++i) {
    tcp::TcpSender* sender = stacks[i].sender.get();
    if (resolved[i].start_offset.ns() <= 0) {
      sender->start();
    } else {
      sim.at(TimePoint::zero() + resolved[i].start_offset,
             [sender] { sender->start(); });
    }
  }

  // Steady-state allocation probe: snapshot the thread's AllocProbe counter
  // and the event count at the window edges. Scheduled AFTER the start
  // events so a probe_begin of zero measures from the first event on. The
  // counters only tick in binaries that install the counting allocator; the
  // two extra events never touch captures, so the recorded bytes are
  // unchanged whether or not the probe is armed.
  std::uint64_t probe_news0 = 0;
  std::uint64_t probe_events0 = 0;
  if (spec.probe_end > spec.probe_begin) {
    sim.at(spec.probe_begin, [&] {
      probe_news0 = util::AllocProbe::news;
      probe_events0 = sim.events_executed();
    });
    sim.at(spec.probe_end, [&] {
      out.steady_allocs = util::AllocProbe::news - probe_news0;
      out.steady_events = sim.events_executed() - probe_events0;
    });
  }

  sim.run_until(TimePoint::zero() + spec.duration);

  if (sim.budget_exhausted()) {
    out.status = util::Status::resource_exhausted(
        "flow watchdog: event budget of " + std::to_string(spec.max_sim_events) +
        " exhausted at t=" + std::to_string(sim.now().to_seconds()) +
        " s (of " + std::to_string(spec.duration.to_seconds()) +
        " s); flow aborted");
  }

  const double elapsed = sim.now().to_seconds();
  out.handoffs = env.handoff_count(sim.now());
  out.sim_events = sim.events_executed();
  out.sim_scheduled = sim.queue().scheduled_total();
  out.sim_tombstones = sim.idle_events();
  out.downlink_aggregate = downlink.stats();
  out.uplink_aggregate = uplink.stats();

  for (unsigned i = 0; i < n; ++i) {
    MultiFlowFlowResult& f = out.flows[i];
    f.flow = i + 1;
    f.start_offset = resolved[i].start_offset;
    f.sender_stats = stacks[i].sender->stats();
    f.receiver_stats = stacks[i].receiver->stats();
    f.events = stacks[i].sender->events();
    // Application goodput over [0, now] — same definition as the single-flow
    // path, and the numerator the fairness shares are computed from.
    HSR_DCHECK_MSG(f.receiver_stats.unique_segments <= f.sender_stats.segments_sent,
                   "receiver delivered more unique segments than were sent");
    f.goodput_pps = elapsed > 0.0
                        ? static_cast<double>(f.receiver_stats.unique_segments) / elapsed
                        : 0.0;
    f.goodput_bps =
        f.goodput_pps * static_cast<double>(resolved[i].tcp.mss_bytes) * 8.0;
    f.faults_injected = out.captures[i].faults.size();
    f.downlink_stats = downlink.endpoint_stats(f.flow);
    f.uplink_stats = uplink.endpoint_stats(f.flow);
    for (const auto& tx : out.captures[i].data.transmissions()) {
      f.bytes_captured += tx.packet.size_bytes;
    }
    for (const auto& tx : out.captures[i].acks.transmissions()) {
      f.bytes_captured += tx.packet.size_bytes;
    }
  }
  return out;
}

MultiFlowSpec MultiFlowSweepSpec::scenario(std::size_t s) const {
  HSR_CHECK_MSG(s < flow_counts.size(), "sweep scenario index out of range");
  MultiFlowSpec spec;
  spec.profile = profile;
  spec.flows = flow_counts[s];
  spec.duration = duration;
  spec.seed = base_seed + s * seed_stride;
  spec.start_stagger = start_stagger;
  spec.tcp = tcp;
  spec.max_sim_events = max_sim_events;
  if (burst_end > burst_begin) {
    // The scripted handoff burst blacks out every flow's access stub over
    // the window — the shared-cell outage the goodput-share tables study.
    // Resolve all senders BEFORE installing any: resolved_sender() switches
    // to the explicit list as soon as it is non-empty.
    std::vector<MultiFlowSenderSpec> senders;
    senders.reserve(spec.flows);
    for (unsigned i = 0; i < spec.flows; ++i) {
      MultiFlowSenderSpec sender = spec.resolved_sender(i);
      sender.downlink_faults.blackout(burst_begin, burst_end, "handoff-burst");
      senders.push_back(std::move(sender));
    }
    spec.senders = std::move(senders);
  }
  return spec;
}

std::vector<MultiFlowResult> run_multi_flow_sweep(const MultiFlowSweepSpec& spec) {
  // Shard scenarios across the pool; every scenario is fully determined by
  // the spec and its index and lands in a pre-sized slot, so claiming order
  // — and therefore thread count — cannot perturb the output bytes.
  std::vector<MultiFlowResult> out(spec.flow_counts.size());
  util::parallel_for(spec.threads, spec.flow_counts.size(), [&](std::uint64_t s) {
    out[s] = run_multi_flow(spec.scenario(s));
  });
  return out;
}

std::vector<trace::FlowCapture> sweep_captures(std::vector<MultiFlowResult>&& results) {
  std::size_t total = 0;
  for (const auto& r : results) total += r.captures.size();
  std::vector<trace::FlowCapture> out;
  out.reserve(total);
  for (auto& r : results) {
    for (auto& c : r.captures) out.push_back(std::move(c));
    r.captures.clear();
  }
  return out;
}

}  // namespace hsr::workload
