// Canonical hot-path benchmark: the per-PR perf trajectory record.
//
// Measures the simulation core's steady-state costs — event schedule/fire,
// timer re-arm and timer arm/cancel (all in events or ops per second, with
// allocations per operation counted by the alloc probe), an end-to-end
// paper-scale flow (events/sec and flows/sec) and the §III flow analysis of
// the lossy flow's capture (analyze_flow calls/sec and allocations per
// call) — and emits a machine-readable bench_out/BENCH_hotpath.json in a
// stable schema.
//
// Compare two runs with tools/bench_compare.py:
//   ./bench_hotpath                 # full run, ~seconds
//   ./bench_hotpath --quick         # CI smoke: small op counts, short flow
//   python3 tools/bench_compare.py baseline.json current.json
//
// JSON schema (schema_version 5; v3 added the lossy-flow metrics — a
// SACK-enabled flow under scripted burst loss — and made the flow
// allocation ratios steady-state probe-window measurements, pinned at
// exactly 0; v4 added analysis_flows_per_s and analysis_allocs_per_flow,
// analysis::analyze_flow over the lossy flow's capture; v5 retired
// reschedule_* and cancel_churn_*, whose queue APIs are gone, for
// timer_rearm_* and timer_arm_cancel_*, sim::Timer driven by a 1 ms tick):
// top-level run metadata, a flat
// "metrics" object holding the best-of-N values, and a "spread" object
// recording min/max/mean/stddev of every throughput metric across the N
// reps. Keys ending in "_per_s" are throughputs (higher is better); keys
// containing "allocs_per" are allocation ratios (lower is better; their
// counts are deterministic, so they carry no spread entry). bench_compare.py
// keys off these suffixes and widens its regression gate by the recorded
// relative spread, so additions must follow the same naming convention.
//
// The binary exits 1 when a steady-state simulation "allocs_per" metric is
// above 0 or analysis_allocs_per_flow is above 4: allocation counts are the
// readings the host cannot move, so CI gates on them.
#define HSRTCP_ALLOC_PROBE_DEFINE_GLOBALS
#include "util/alloc_probe.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "analysis/flow_analysis.h"
#include "bench/common.h"
#include "radio/profiles.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/timer.h"
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

struct SectionResult {
  double ops_per_s = 0.0;
  double allocs_per_op = 0.0;
};

double ops_per_s(const SectionResult& r) { return r.ops_per_s; }

// One pending event at a time: the pure schedule→fire cycle.
SectionResult bench_schedule_fire(std::uint64_t ops) {
  EventQueue q;
  std::uint64_t fired = 0;
  auto cycle = [&](std::uint64_t i) {
    q.schedule(TimePoint::from_ns(static_cast<std::int64_t>(i)), [&fired] { ++fired; });
    q.pop_and_run();
  };
  for (std::uint64_t i = 0; i < 1024; ++i) cycle(i);  // warm-up: slab growth
  AllocProbe::Scope scope;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 1024; i < ops; ++i) cycle(i);
  const double wall = seconds_since(t0);
  SectionResult r;
  r.ops_per_s = static_cast<double>(ops - 1024) / wall;
  r.allocs_per_op =
      static_cast<double>(scope.news_delta()) / static_cast<double>(ops - 1024);
  return r;
}

// Standing population of in-flight events (a busy link) with FIFO drain:
// stresses heap sift costs at realistic depths.
SectionResult bench_burst_fire(std::uint64_t ops) {
  constexpr std::uint64_t kBatch = 512;
  EventQueue q;
  std::uint64_t fired = 0;
  std::int64_t stamp = 0;
  auto burst = [&] {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      q.schedule(TimePoint::from_ns(++stamp), [&fired] { ++fired; });
    }
    while (!q.empty()) q.pop_and_run();
  };
  burst();  // warm-up
  AllocProbe::Scope scope;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t bursts = ops / kBatch;
  for (std::uint64_t b = 0; b < bursts; ++b) burst();
  const double wall = seconds_since(t0);
  SectionResult r;
  r.ops_per_s = static_cast<double>(bursts * kBatch) / wall;
  r.allocs_per_op =
      static_cast<double>(scope.news_delta()) / static_cast<double>(bursts * kBatch);
  return r;
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
  double events_per_s = 0.0;   // simulated events per wall second
  double flows_per_s = 0.0;    // whole flows per wall second
  double allocs_per_event = 0.0;  // steady-state: probe window, exactly 0
  std::uint64_t sim_events = 0;
  double sim_duration_s = 0.0;
  hsr::trace::FlowCapture capture;
};

// End-to-end: one paper-scale bulk-download flow (links, radio channels,
// capture taps, the full TCP stack). The allocation ratio is measured over
// the steady-state probe window [10% of the flow, end]: setup and the
// one-time high-water growth of queue/capture storage happen before the
// window opens, so the ratio is EXACTLY zero — the endpoint layer's flat
// scoreboards and segment rings never touch the allocator per event.
FlowResult measure_flow(hsr::workload::FlowRunConfig cfg, double sim_seconds) {
  cfg.duration = hsr::util::Duration::from_seconds(sim_seconds);
  cfg.probe_begin = TimePoint::zero() + cfg.duration / 10;
  cfg.probe_end = TimePoint::zero() + cfg.duration;
  (void)hsr::workload::run_flow(cfg);  // warm-up run
  const auto t0 = std::chrono::steady_clock::now();
  hsr::workload::FlowRunResult run = hsr::workload::run_flow(cfg);
  const double wall = seconds_since(t0);
  FlowResult r;
  r.sim_events = run.sim_events;
  r.sim_duration_s = sim_seconds;
  r.events_per_s = static_cast<double>(run.sim_events) / wall;
  r.flows_per_s = 1.0 / wall;
  r.allocs_per_event = static_cast<double>(run.steady_allocs) /
                       static_cast<double>(run.steady_events);
  r.capture = std::move(run.capture);
  return r;
}

double events_per_s(const FlowResult& r) { return r.events_per_s; }

FlowResult bench_flow(double sim_seconds, std::uint64_t seed) {
  hsr::workload::FlowRunConfig cfg;
  cfg.profile = hsr::radio::mobile_lte_highspeed();
  cfg.seed = seed;
  return measure_flow(std::move(cfg), sim_seconds);
}

// Loss-recovery hot path: the same paper-scale flow with SACK enabled and a
// scripted burst-loss plan (periodic 250 ms downlink blackouts — handoff-
// style outages). Every blackout forces scoreboard marks, hole
// retransmission scans and RTO churn, so this measures the endpoints'
// recovery machinery — where the former std::set scoreboard did its
// per-ACK node walks — rather than the in-order fast path.
FlowResult bench_lossy_flow(double sim_seconds, std::uint64_t seed) {
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
  return measure_flow(std::move(cfg), sim_seconds);
}

// The §III flow analysis (analysis::analyze_flow) over one capture, called
// `calls` times: whole-flow analyses per second, and heap allocations per
// call counted by the alloc probe (a per-call constant for the flat
// single-pass implementation, independent of the capture's length).
SectionResult bench_analysis(const hsr::trace::FlowCapture& capture, int calls) {
  double sink = hsr::analysis::analyze_flow(capture).goodput_pps;  // warm-up
  AllocProbe::Scope scope;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < calls; ++i) {
    sink += hsr::analysis::analyze_flow(capture).goodput_pps;
  }
  const double wall = seconds_since(t0);
  SectionResult r;
  r.ops_per_s = static_cast<double>(calls) / wall;
  r.allocs_per_op = static_cast<double>(scope.news_delta()) / static_cast<double>(calls);
  if (!std::isfinite(sink)) std::cout << "";  // keeps the calls observable
  return r;
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
  bench::header(quick ? "Simulation hot path (quick smoke)"
                      : "Simulation hot path");

  const std::uint64_t ops = quick ? 200'000 : 4'000'000;
  const double flow_secs = quick ? 30.0 : 300.0;
  const int reps = quick ? 1 : 3;

  using bench::best_of;
  const auto sf = best_of(reps, [&] { return bench_schedule_fire(ops); }, ops_per_s);
  std::cout << "schedule+fire      " << sf.best.ops_per_s << " events/s  "
            << sf.best.allocs_per_op << " allocs/event\n";
  const auto bf = best_of(reps, [&] { return bench_burst_fire(ops); }, ops_per_s);
  std::cout << "burst(512)+drain   " << bf.best.ops_per_s << " events/s  "
            << bf.best.allocs_per_op << " allocs/event\n";
  const auto tr = best_of(reps, [&] { return bench_timer_rearm(ops); }, ops_per_s);
  std::cout << "timer re-arm       " << tr.best.ops_per_s << " ops/s     "
            << tr.best.allocs_per_op << " allocs/op\n";
  const auto ta = best_of(reps, [&] { return bench_timer_arm_cancel(ops); }, ops_per_s);
  std::cout << "timer arm+cancel   " << ta.best.ops_per_s << " ops/s     "
            << ta.best.allocs_per_op << " allocs/op\n";
  const auto fl_runs = best_of(reps, [&] { return bench_flow(flow_secs, bench::seed()); },
                               events_per_s);
  const FlowResult& fl = fl_runs.best;
  // Every rep runs the same events, so flows/s is events/s over a constant.
  const bench::Spread flow_flows_spread =
      fl_runs.spread.scaled(1.0 / static_cast<double>(fl.sim_events));
  std::cout << "flow (" << flow_secs << " s sim)  " << fl.events_per_s
            << " events/s  " << fl.flows_per_s << " flows/s  "
            << fl.allocs_per_event << " allocs/event ("
            << fl.sim_events << " events)\n";
  const auto lf_runs = best_of(
      reps, [&] { return bench_lossy_flow(flow_secs, bench::seed()); }, events_per_s);
  const FlowResult& lf = lf_runs.best;
  std::cout << "lossy flow (" << flow_secs << " s sim, SACK+bursts)  "
            << lf.events_per_s << " events/s  " << lf.allocs_per_event
            << " allocs/event (" << lf.sim_events << " events)\n";
  const int analysis_calls = quick ? 20 : 200;
  const auto an =
      best_of(reps, [&] { return bench_analysis(lf.capture, analysis_calls); }, ops_per_s);
  const std::uint64_t analysis_transmissions =
      lf.capture.data.sent_count() + lf.capture.acks.sent_count();
  std::cout << "analyze_flow (lossy capture, " << analysis_transmissions
            << " transmissions)  " << an.best.ops_per_s << " flows/s  "
            << an.best.allocs_per_op << " allocs/flow\n";

  const auto path = bench::out_dir() / "BENCH_hotpath.json";
  std::ofstream json(path);
  json.precision(10);
  const auto spread_entry = [&json](const char* name, const bench::Spread& s,
                                    const char* trailer) {
    json << "    \"" << name << "\": {\"min\": " << s.min
         << ", \"max\": " << s.max << ", \"mean\": " << s.mean
         << ", \"stddev\": " << s.stddev << "}" << trailer << "\n";
  };
  json << "{\n"
       << "  \"bench\": \"hotpath\",\n"
       << "  \"schema_version\": 5,\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"seed\": " << bench::seed() << ",\n"
       << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"ops\": " << ops << ",\n"
       << "  \"flow_sim_duration_s\": " << fl.sim_duration_s << ",\n"
       << "  \"flow_sim_events\": " << fl.sim_events << ",\n"
       << "  \"analysis_transmissions\": " << analysis_transmissions << ",\n"
       << "  \"metrics\": {\n"
       << "    \"schedule_fire_events_per_s\": " << sf.best.ops_per_s << ",\n"
       << "    \"schedule_fire_allocs_per_event\": " << sf.best.allocs_per_op << ",\n"
       << "    \"burst_fire_events_per_s\": " << bf.best.ops_per_s << ",\n"
       << "    \"burst_fire_allocs_per_event\": " << bf.best.allocs_per_op << ",\n"
       << "    \"timer_rearm_ops_per_s\": " << tr.best.ops_per_s << ",\n"
       << "    \"timer_rearm_allocs_per_op\": " << tr.best.allocs_per_op << ",\n"
       << "    \"timer_arm_cancel_ops_per_s\": " << ta.best.ops_per_s << ",\n"
       << "    \"timer_arm_cancel_allocs_per_op\": " << ta.best.allocs_per_op << ",\n"
       << "    \"flow_events_per_s\": " << fl.events_per_s << ",\n"
       << "    \"flows_per_s\": " << fl.flows_per_s << ",\n"
       << "    \"flow_allocs_per_event\": " << fl.allocs_per_event << ",\n"
       << "    \"lossy_flow_events_per_s\": " << lf.events_per_s << ",\n"
       << "    \"lossy_flow_allocs_per_event\": " << lf.allocs_per_event << ",\n"
       << "    \"analysis_flows_per_s\": " << an.best.ops_per_s << ",\n"
       << "    \"analysis_allocs_per_flow\": " << an.best.allocs_per_op << "\n"
       << "  },\n"
       << "  \"spread\": {\n";
  spread_entry("schedule_fire_events_per_s", sf.spread, ",");
  spread_entry("burst_fire_events_per_s", bf.spread, ",");
  spread_entry("timer_rearm_ops_per_s", tr.spread, ",");
  spread_entry("timer_arm_cancel_ops_per_s", ta.spread, ",");
  spread_entry("flow_events_per_s", fl_runs.spread, ",");
  spread_entry("flows_per_s", flow_flows_spread, ",");
  spread_entry("lossy_flow_events_per_s", lf_runs.spread, ",");
  spread_entry("analysis_flows_per_s", an.spread, "");
  json << "  }\n"
       << "}\n";
  std::cout << "[json] summary -> " << path.string() << "\n";

  // The gate: allocation counts do not move with the host, so unlike the
  // throughputs they can fail a run. The simulation's steady state must not
  // allocate at all.
  const std::pair<const char*, double> steady_allocs[] = {
      {"schedule_fire_allocs_per_event", sf.best.allocs_per_op},
      {"burst_fire_allocs_per_event", bf.best.allocs_per_op},
      {"timer_rearm_allocs_per_op", tr.best.allocs_per_op},
      {"timer_arm_cancel_allocs_per_op", ta.best.allocs_per_op},
      {"flow_allocs_per_event", fl.allocs_per_event},
      {"lossy_flow_allocs_per_event", lf.allocs_per_event},
  };
  int status = 0;
  for (const auto& [name, allocs] : steady_allocs) {
    if (allocs > 0.0) {
      std::cerr << "FAIL: " << name << " = " << allocs << ", want 0\n";
      status = 1;
    }
  }
  if (an.best.allocs_per_op > kMaxAnalysisAllocsPerFlow) {
    std::cerr << "FAIL: analysis_allocs_per_flow = " << an.best.allocs_per_op
              << ", want at most " << kMaxAnalysisAllocsPerFlow << "\n";
    status = 1;
  }
  return status;
}
