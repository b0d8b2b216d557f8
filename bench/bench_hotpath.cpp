// Canonical hot-path benchmark: the per-PR perf trajectory record and the
// project's one microbenchmark harness.
//
// Measures the simulation core's steady-state costs — event schedule/fire,
// timer re-arm and timer arm/cancel (all in events or ops per second, with
// allocations per operation counted by the alloc probe), an end-to-end
// paper-scale flow (events/sec and flows/sec) and the §III flow analysis of
// the lossy flow's capture (analyze_flow calls/sec and allocations per
// call) — and the unit costs a layer's per-flow counters multiply: a radio
// drop-probability query, a Bernoulli draw, a packet through net::Link with
// one endpoint and with a shared cell's 64, a SACK scoreboard rank query
// and one evaluation of each throughput model. It emits a machine-readable
// bench_out/BENCH_hotpath.json in a stable schema.
//
// Compare two builds with tools/bench_compare.py, in alternating runs on
// one host (separate runs drift with the host's load):
//   ./bench_hotpath                 # full run, ~seconds
//   ./bench_hotpath --quick         # CI smoke: small op counts, short flow
//   python3 tools/bench_compare.py --ab parent/bench_hotpath bench_hotpath
//
// JSON schema (schema_version 7; v3 added the lossy-flow metrics — a
// SACK-enabled flow under scripted burst loss — and made the flow
// allocation ratios steady-state probe-window measurements, pinned at
// exactly 0; v4 added analysis_flows_per_s and analysis_allocs_per_flow,
// analysis::analyze_flow over the lossy flow's capture; v5 retired
// reschedule_* and cancel_churn_*, whose queue APIs are gone, for
// timer_rearm_* and timer_arm_cancel_*, sim::Timer driven by a 1 ms tick;
// v6 added the unit costs radio_queries_per_s, rng_bernoulli_per_s,
// link_packets_per_s with link_allocs_per_packet, scoreboard_rank_per_s,
// padhye_evals_per_s and enhanced_evals_per_s; v7 times each flow-section
// rep as whole flows back to back for at least kMinRepSeconds, and added
// shared_link_packets_per_s, the link packet over 64 endpoints): top-level
// run metadata, a flat "metrics" object holding the best-of-N values, and a
// "spread" object recording min/max/mean/stddev of every throughput metric
// across the N reps (bench::Summary in bench/common.h). bench_compare.py
// keys off the "_per_s" and "allocs_per" name suffixes, so additions must
// follow the same naming convention.
//
// The binary exits 1 when a steady-state "allocs_per" metric is above 0 or
// analysis_allocs_per_flow is above 4: allocation counts are the readings
// the host cannot move, so CI gates on them.
#define HSRTCP_ALLOC_PROBE_DEFINE_GLOBALS
#include "util/alloc_probe.h"

#include <chrono>
#include <cstring>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "analysis/flow_analysis.h"
#include "bench/common.h"
#include "model/enhanced.h"
#include "model/padhye.h"
#include "net/link.h"
#include "radio/environment.h"
#include "radio/profiles.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "tcp/seq_window.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace {

using hsr::sim::EventQueue;
using hsr::util::AllocProbe;
using hsr::util::Duration;
using hsr::util::TimePoint;

using hsr::bench::seconds_since;

// The most heap allocations one analyze_flow call may make: its flat
// passes allocate a fixed handful of arrays whatever the capture's length.
constexpr double kMaxAnalysisAllocsPerFlow = 4.0;

// Each rep of a flow section runs whole flows back to back for at least
// this long (bench_trace's rule): one paper-scale flow is only 10-15 ms of
// wall, too short a sample to repeat across runs.
constexpr double kMinRepSeconds = 0.25;

struct SectionResult {
  double ops_per_s = 0.0;
  double allocs_per_op = 0.0;

  // The same reading per item, for calls that each handle `items`.
  SectionResult per(double items) const { return {ops_per_s * items, allocs_per_op / items}; }
};

double ops_per_s(const SectionResult& r) { return r.ops_per_s; }

// Keeps `value` observable: the optimizer can neither drop the call that
// produced it nor, because the asm may change any memory it can reach,
// hoist that call out of a timing loop. A pure call's inputs go through it
// too, so they are not compile-time constants.
template <class T>
void keep(const T& value) {
  if constexpr (std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(void*)) {
    asm volatile("" : : "r,m"(value) : "memory");
  } else {
    asm volatile("" : : "m"(value) : "memory");  // a register copy would copy the object
  }
}

// `calls` calls of `call(i)` after `warmup` untimed ones: calls per second
// and heap allocations per call, counted by the alloc probe.
template <class Call>
SectionResult time_calls(std::uint64_t warmup, std::uint64_t calls, Call call) {
  for (std::uint64_t i = 0; i < warmup; ++i) call(i);
  AllocProbe::Scope scope;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = warmup; i < warmup + calls; ++i) call(i);
  const double wall = seconds_since(t0);
  return {static_cast<double>(calls) / wall,
          static_cast<double>(scope.news_delta()) / static_cast<double>(calls)};
}

// One pending event at a time: the pure schedule→fire cycle. The warm-up
// covers slab growth.
SectionResult bench_schedule_fire(std::uint64_t ops) {
  EventQueue q;
  std::uint64_t fired = 0;
  return time_calls(1024, ops - 1024, [&](std::uint64_t i) {
    q.schedule(TimePoint::from_ns(static_cast<std::int64_t>(i)), [&fired] { ++fired; });
    q.pop_and_run();
  });
}

// Standing population of in-flight events (a busy link) with FIFO drain:
// stresses heap sift costs at realistic depths.
SectionResult bench_burst_fire(std::uint64_t ops) {
  constexpr std::uint64_t kBatch = 512;
  EventQueue q;
  std::uint64_t fired = 0;
  std::int64_t stamp = 0;
  const auto burst = [&](std::uint64_t) {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      q.schedule(TimePoint::from_ns(++stamp), [&fired] { ++fired; });
    }
    while (!q.empty()) q.pop_and_run();
  };
  return time_calls(1, ops / kBatch, burst).per(kBatch);
}
// A tick event every simulated millisecond runs `on_tick` on one timer, the
// way ACK arrivals drive TCP's timers; an op is one tick. The clock moves,
// so the timer's wake-ups surface, re-post or retire inside the measured
// loop.
template <class OnTick>
SectionResult bench_timer_ticks(std::uint64_t ops, OnTick on_tick) {
  constexpr std::uint64_t kWarmup = 1024;
  hsr::sim::Simulator sim;
  hsr::sim::Timer timer(sim, [] {});
  std::uint64_t ticks = 0;
  const auto tick = [&](const auto& self) -> void {
    on_tick(timer);
    if (++ticks < ops) sim.after(Duration::millis(1), [&self] { self(self); });
  };
  sim.at(TimePoint::zero(), [&tick] { tick(tick); });
  sim.run_until(TimePoint::zero() + Duration::millis(kWarmup - 1));  // warm-up
  AllocProbe::Scope scope;
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const double wall = seconds_since(t0);
  SectionResult r;
  r.ops_per_s = static_cast<double>(ops - kWarmup) / wall;
  r.allocs_per_op =
      static_cast<double>(scope.news_delta()) / static_cast<double>(ops - kWarmup);
  return r;
}

// ACK-clocked RTO: every tick re-arms a 200 ms timer, so its wake-up finds
// the deadline moved and re-posts itself once per 200 ticks.
SectionResult bench_timer_rearm(std::uint64_t ops) {
  return bench_timer_ticks(ops, [](hsr::sim::Timer& t) { t.arm(Duration::millis(200)); });
}

// Delayed ACK: every tick arms a 40 ms timer and cancels it again, so a
// wake-up surfaces idle once per 40 ticks and the next arm posts a new one.
SectionResult bench_timer_arm_cancel(std::uint64_t ops) {
  return bench_timer_ticks(ops, [](hsr::sim::Timer& t) {
    t.arm(Duration::millis(40));
    t.cancel();
  });
}

struct FlowResult {
  hsr::bench::BestOf<double> events_per_s;  // simulated events per wall second
  double allocs_per_event = 0.0;  // steady-state: probe window, exactly 0
  std::uint64_t sim_events = 0;   // per flow; every flow runs the same events
  hsr::trace::FlowCapture capture;
};

// End-to-end: paper-scale bulk-download flows (links, radio channels,
// capture taps, the full TCP stack). A first, untimed flow warms up and
// yields the capture and the allocation ratio, measured over the
// steady-state probe window [10% of the flow, end]: setup and the one-time
// high-water growth of queue/capture storage happen before the window
// opens, so the ratio is EXACTLY zero — the endpoint layer's flat
// scoreboards and segment rings never touch the allocator per event. Each
// of `reps` reps then runs whole flows for at least kMinRepSeconds.
FlowResult measure_flow(hsr::workload::FlowRunConfig cfg, double sim_seconds, int reps) {
  cfg.duration = hsr::util::Duration::from_seconds(sim_seconds);
  cfg.probe_begin = TimePoint::zero() + cfg.duration / 10;
  cfg.probe_end = TimePoint::zero() + cfg.duration;
  hsr::workload::FlowRunResult first = hsr::workload::run_flow(cfg);
  FlowResult r;
  r.sim_events = first.sim_events;
  r.allocs_per_event = static_cast<double>(first.steady_allocs) /
                       static_cast<double>(first.steady_events);
  r.capture = std::move(first.capture);
  const auto rep = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t flows = 0;
    double wall = 0.0;
    do {
      keep(hsr::workload::run_flow(cfg).sim_events);
      ++flows;
      wall = seconds_since(t0);
    } while (wall < kMinRepSeconds);
    return static_cast<double>(flows * r.sim_events) / wall;
  };
  r.events_per_s = hsr::bench::best_of(reps, rep, std::identity{});
  return r;
}

FlowResult bench_flow(double sim_seconds, std::uint64_t seed, int reps) {
  hsr::workload::FlowRunConfig cfg;
  cfg.profile = hsr::radio::mobile_lte_highspeed();
  cfg.seed = seed;
  return measure_flow(std::move(cfg), sim_seconds, reps);
}

// Loss-recovery hot path: the same paper-scale flow with SACK enabled and a
// scripted burst-loss plan (periodic 250 ms downlink blackouts — handoff-
// style outages). Every blackout forces scoreboard marks, hole
// retransmission scans and RTO churn, so this measures the endpoints'
// recovery machinery — where the former std::set scoreboard did its
// per-ACK node walks — rather than the in-order fast path.
FlowResult bench_lossy_flow(double sim_seconds, std::uint64_t seed, int reps) {
  hsr::workload::FlowRunConfig cfg;
  cfg.profile = hsr::radio::mobile_lte_highspeed();
  cfg.seed = seed;
  cfg.tcp.enable_sack = true;
  for (double t = 2.0; t < sim_seconds; t += 5.0) {
    cfg.downlink_faults.blackout(
        TimePoint::from_seconds(t),
        TimePoint::from_seconds(t + 0.25),
        "bench-burst");
  }
  return measure_flow(std::move(cfg), sim_seconds, reps);
}

// The §III flow analysis (analysis::analyze_flow) over one capture, called
// `calls` times: whole-flow analyses per second, and heap allocations per
// call (a per-call constant for the flat single-pass implementation,
// independent of the capture's length).
SectionResult bench_analysis(const hsr::trace::FlowCapture& capture, std::uint64_t calls) {
  return time_calls(1, calls, [&](std::uint64_t) {
    keep(hsr::analysis::analyze_flow(capture).goodput_pps);
  });
}

// The radio layer's per-packet cost: one drop-probability query per
// simulated millisecond on the Unicom high-speed profile.
SectionResult bench_radio_queries(std::uint64_t ops) {
  hsr::radio::RadioEnvironment env(hsr::radio::unicom_3g_highspeed().radio,
                                   hsr::util::Rng(3));
  return time_calls(1024, ops, [&](std::uint64_t i) {
    keep(env.drop_probability(hsr::radio::Direction::kDownlink,
                              TimePoint::zero() + Duration::millis(static_cast<std::int64_t>(i))));
  });
}

// One 1 %-loss Bernoulli draw, the channel's per-packet coin.
SectionResult bench_rng_bernoulli(std::uint64_t ops) {
  hsr::util::Rng rng(42);
  return time_calls(1024, ops, [&](std::uint64_t) { keep(rng.bernoulli(0.01)); });
}

// The link layer's per-packet cost: 1000-packet batches through one reused
// net::Link whose `flows` endpoints (flows 1..flows) each have a 1 %-loss
// BernoulliChannel, packets sent round-robin over the flows, each batch
// sent at once and drained (endpoint lookup, DropTail queue, channel
// verdict, delivery event). Three warm-up batches bring the event slab to
// its high-water mark, after which a packet allocates nothing.
SectionResult bench_link(std::uint64_t packets, hsr::net::FlowId flows) {
  constexpr std::uint64_t kBatch = 1000;
  hsr::sim::Simulator sim;
  hsr::net::LinkConfig cfg;
  cfg.rate_bps = 100e6;
  cfg.queue_capacity = 10000;
  hsr::net::Link link(sim, cfg);
  std::uint64_t delivered = 0;
  for (hsr::net::FlowId flow = 1; flow <= flows; ++flow) {
    link.register_endpoint(
        flow, std::make_unique<hsr::net::BernoulliChannel>(0.01, hsr::util::Rng(flow)),
        [&delivered](const hsr::net::Packet&) { ++delivered; });
  }
  const SectionResult r = time_calls(3, packets / kBatch, [&](std::uint64_t) {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      hsr::net::Packet p;
      p.id = hsr::net::allocate_packet_id();
      p.flow = 1 + static_cast<hsr::net::FlowId>(i % flows);
      p.size_bytes = 1400;
      link.send(std::move(p));
    }
    sim.run();
  });
  keep(delivered);
  return r.per(kBatch);
}

// The SACK pipe estimate the sender runs on every ACK:
// SeqScoreboard::rank_below over a 16,384-segment span with every other
// sequence marked (a bitmap's worst case), queried just below the highest
// mark so no early-out applies.
SectionResult bench_scoreboard_rank(std::uint64_t ops) {
  constexpr hsr::net::SeqNo kBase = 1'000'000;
  constexpr hsr::net::SeqNo kSpan = 16'384;
  hsr::tcp::SeqScoreboard board(kBase, 2 * kSpan);
  for (hsr::net::SeqNo s = kBase + 1; s <= kBase + kSpan; s += 2) board.mark(s);
  return time_calls(16, ops, [&](std::uint64_t) {
    keep(board);
    keep(board.rank_below(kBase + kSpan - 1));
  });
}

// One evaluation of each throughput model at the same operating point.
constexpr hsr::model::PathParams kModelPath{0.1, 0.5, 2.0, 256.0};

SectionResult bench_padhye(std::uint64_t ops) {
  hsr::model::PadhyeInputs in;
  in.p = 0.0075;
  in.path = kModelPath;
  return time_calls(1024, ops, [&](std::uint64_t) {
    keep(in);
    keep(hsr::model::padhye_throughput_pps(in));
  });
}

SectionResult bench_enhanced(std::uint64_t ops) {
  hsr::model::EnhancedInputs in;  // p_d 0.0075, P_a 0.01, q 0.3
  in.path = kModelPath;
  return time_calls(1024, ops, [&](std::uint64_t) {
    keep(in);
    keep(hsr::model::enhanced_throughput_pps(in));
  });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hsr;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::cerr << "usage: bench_hotpath [--quick]\n";
      return 2;
    }
  }
  const std::filesystem::path json_path = bench::out_dir() / "BENCH_hotpath.json";
  bench::header(quick ? "Simulation hot path (quick smoke)"
                      : "Simulation hot path");

  const std::uint64_t ops = quick ? 200'000 : 4'000'000;
  const double flow_secs = quick ? 30.0 : 300.0;
  const int reps = quick ? 1 : 3;

  bench::Summary summary;
  // Runs one section best-of-`reps`, prints it and records its throughput
  // `rate` and, when `allocs` names one, its allocation ratio.
  const auto section = [&](const char* label, const char* unit, const char* rate,
                           const char* allocs, auto run) {
    const auto b = bench::best_of(reps, run, ops_per_s);
    std::cout << std::left << std::setw(20) << label << b.best.ops_per_s << ' ' << unit
              << "/s";
    summary.rate(rate, b.best.ops_per_s, b.spread);
    if (allocs != nullptr) {
      std::cout << "  " << b.best.allocs_per_op << " allocs/" << unit;
      summary.metric(allocs, b.best.allocs_per_op);
    }
    std::cout << '\n';
  };
  section("schedule+fire", "event", "schedule_fire_events_per_s",
          "schedule_fire_allocs_per_event", [&] { return bench_schedule_fire(ops); });
  section("burst(512)+drain", "event", "burst_fire_events_per_s",
          "burst_fire_allocs_per_event", [&] { return bench_burst_fire(ops); });
  section("timer re-arm", "op", "timer_rearm_ops_per_s", "timer_rearm_allocs_per_op",
          [&] { return bench_timer_rearm(ops); });
  section("timer arm+cancel", "op", "timer_arm_cancel_ops_per_s",
          "timer_arm_cancel_allocs_per_op", [&] { return bench_timer_arm_cancel(ops); });

  // Every flow of a section runs the same events, so flows/s is events/s
  // over a constant.
  const auto flow_section = [&](const FlowResult& f, const char* label, const char* events,
                                const char* flows, const char* allocs) {
    std::cout << label << " (" << flow_secs << " s sim)  " << f.events_per_s.best
              << " events/s  " << f.events_per_s.best / static_cast<double>(f.sim_events)
              << " flows/s  " << f.allocs_per_event << " allocs/event (" << f.sim_events
              << " events)\n";
    summary.rate(events, f.events_per_s.best, f.events_per_s.spread);
    if (flows != nullptr) {
      const double per_flow = 1.0 / static_cast<double>(f.sim_events);
      summary.rate(flows, f.events_per_s.best * per_flow, f.events_per_s.spread.scaled(per_flow));
    }
    summary.metric(allocs, f.allocs_per_event);
  };
  const FlowResult fl = bench_flow(flow_secs, bench::seed(), reps);
  flow_section(fl, "flow", "flow_events_per_s", "flows_per_s", "flow_allocs_per_event");
  const FlowResult lf = bench_lossy_flow(flow_secs, bench::seed(), reps);
  flow_section(lf, "lossy flow, SACK+bursts", "lossy_flow_events_per_s", nullptr,
               "lossy_flow_allocs_per_event");

  const std::uint64_t analysis_transmissions =
      lf.capture.data.sent_count() + lf.capture.acks.sent_count();
  std::cout << "analyze_flow over the lossy capture (" << analysis_transmissions
            << " transmissions)\n";
  section("  analyze_flow", "flow", "analysis_flows_per_s", "analysis_allocs_per_flow",
          [&] { return bench_analysis(lf.capture, quick ? 20 : 200); });

  std::cout << "unit costs\n";
  section("  radio query", "query", "radio_queries_per_s", nullptr,
          [&] { return bench_radio_queries(ops); });
  section("  rng bernoulli", "draw", "rng_bernoulli_per_s", nullptr,
          [&] { return bench_rng_bernoulli(ops); });
  section("  link packet", "packet", "link_packets_per_s", "link_allocs_per_packet",
          [&] { return bench_link(ops, 1); });
  section("  link, 64 flows", "packet", "shared_link_packets_per_s", nullptr,
          [&] { return bench_link(ops, 64); });
  section("  scoreboard rank", "query", "scoreboard_rank_per_s", nullptr,
          [&] { return bench_scoreboard_rank(ops / 16); });
  section("  padhye model", "eval", "padhye_evals_per_s", nullptr,
          [&] { return bench_padhye(ops); });
  section("  enhanced model", "eval", "enhanced_evals_per_s", nullptr,
          [&] { return bench_enhanced(ops); });

  summary.fact("bench", "hotpath");
  summary.fact("schema_version", 7);
  summary.fact("quick", quick);
  summary.fact("reps", reps);
  summary.fact("seed", bench::seed());
  summary.fact("hardware_concurrency", std::thread::hardware_concurrency());
  summary.fact("ops", ops);
  summary.fact("flow_sim_duration_s", flow_secs);
  summary.fact("flow_sim_events", fl.sim_events);
  summary.fact("analysis_transmissions", analysis_transmissions);
  summary.write(json_path);

  // The gate: allocation counts do not move with the host, so unlike the
  // throughputs they can fail a run. Steady state must not allocate at all;
  // one analyze_flow call may allocate its fixed handful of arrays.
  int status = 0;
  for (const auto& [name, allocs] : summary.metrics()) {
    if (name.find("allocs_per") == std::string::npos) continue;
    const double limit = name == "analysis_allocs_per_flow" ? kMaxAnalysisAllocsPerFlow : 0.0;
    if (allocs > limit) {
      std::cerr << "FAIL: " << name << " = " << allocs << ", want at most " << limit << "\n";
      status = 1;
    }
  }
  return status;
}
