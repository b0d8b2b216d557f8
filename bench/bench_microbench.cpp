// Google-benchmark microbenchmarks for the hot paths of the simulator and
// the models: event queue churn, link forwarding, full TCP second-of-sim,
// model evaluation and the trace analyzer.
#include <benchmark/benchmark.h>

#include <iterator>
#include <memory>
#include <set>

#include "analysis/flow_analysis.h"
#include "model/enhanced.h"
#include "model/padhye.h"
#include "net/link.h"
#include "radio/profiles.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "tcp/seq_window.h"
#include "util/rng.h"
#include "workload/scenario.h"

using namespace hsr;

static void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < batch; ++i) {
      sim.after(util::Duration::micros(i % 997), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

// The pipe estimate the sender runs on EVERY ACK: how many segments below
// snd_next are SACKed. Both variants build a half-full scoreboard over a
// `window`-segment in-flight span (every other sequence marked — the worst
// case for both layouts) and time one rank query.
//
// The historical std::set implementation answered with
// std::distance(begin, lower_bound(snd_next)) — a node walk linear in the
// scoreboard population, so each ACK cost O(window) pointer chases and the
// per-round-trip total was O(window^2) at large windows.
static void BM_PipeEstimateSetDistance(benchmark::State& state) {
  const int window = static_cast<int>(state.range(0));
  const net::SeqNo base = 1'000'000;
  std::set<net::SeqNo> board;
  for (net::SeqNo s = base + 1; s <= base + static_cast<net::SeqNo>(window);
       s += 2) {
    board.insert(s);
  }
  // Query just below the highest mark: rank_below's early-outs (empty, at
  // or below the floor, above the top mark) must not trivialize the scan.
  const net::SeqNo snd_next = base + static_cast<net::SeqNo>(window) - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(board);  // defeat hoisting of the pure query
    benchmark::DoNotOptimize(static_cast<std::size_t>(
        std::distance(board.begin(), board.lower_bound(snd_next))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PipeEstimateSetDistance)->Arg(64)->Arg(1024)->Arg(16384);

// The replacement: SeqScoreboard::rank_below popcounts the bitmap — 64
// sequences per word, contiguous memory, no nodes.
static void BM_PipeEstimateScoreboardRank(benchmark::State& state) {
  const int window = static_cast<int>(state.range(0));
  const net::SeqNo base = 1'000'000;
  tcp::SeqScoreboard board(base, static_cast<std::size_t>(window) * 2);
  for (net::SeqNo s = base + 1; s <= base + static_cast<net::SeqNo>(window);
       s += 2) {
    board.mark(s);
  }
  const net::SeqNo snd_next = base + static_cast<net::SeqNo>(window) - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(board);  // defeat hoisting of the pure query
    benchmark::DoNotOptimize(board.rank_below(snd_next));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PipeEstimateScoreboardRank)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_RngBernoulli(benchmark::State& state) {
  util::Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.bernoulli(0.01));
  }
}
BENCHMARK(BM_RngBernoulli);

static void BM_LinkForwarding(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::LinkConfig cfg;
    cfg.rate_bps = 100e6;
    cfg.queue_capacity = 10000;
    net::Link link(sim, cfg);
    link.register_endpoint(0, std::make_unique<net::BernoulliChannel>(0.01, util::Rng(1)),
                           [](const net::Packet&) {});
    for (int i = 0; i < 1000; ++i) {
      net::Packet p;
      p.id = net::allocate_packet_id();
      p.size_bytes = 1400;
      link.send(std::move(p));
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LinkForwarding);

static void BM_TcpSecondOfSimulation(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    tcp::ConnectionConfig cfg;
    cfg.tcp.receiver_window = 64;
    cfg.downlink.rate_bps = 20e6;
    cfg.uplink.rate_bps = 20e6;
    tcp::Connection conn(sim, 1, cfg,
                         std::make_unique<net::BernoulliChannel>(0.005, util::Rng(7)),
                         std::make_unique<net::PerfectChannel>());
    conn.start();
    sim.run_until(util::TimePoint::from_seconds(1));
    benchmark::DoNotOptimize(conn.goodput_segments_per_s());
  }
}
BENCHMARK(BM_TcpSecondOfSimulation);

static void BM_PadhyeModel(benchmark::State& state) {
  model::PadhyeInputs in;
  in.p = 0.0075;
  in.path = model::PathParams{0.1, 0.5, 2.0, 256.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::padhye_throughput_pps(in));
  }
}
BENCHMARK(BM_PadhyeModel);

static void BM_EnhancedModel(benchmark::State& state) {
  model::EnhancedInputs in;
  in.p_d = 0.0075;
  in.P_a = 0.01;
  in.q = 0.3;
  in.path = model::PathParams{0.1, 0.5, 2.0, 256.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::enhanced_throughput_pps(in));
  }
}
BENCHMARK(BM_EnhancedModel);

static void BM_FlowAnalysis(benchmark::State& state) {
  workload::FlowRunConfig cfg;
  cfg.profile = radio::unicom_3g_highspeed();
  cfg.duration = util::Duration::seconds(30);
  cfg.seed = 5;
  const auto run = workload::run_flow(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyze_flow(run.capture));
  }
  state.SetItemsProcessed(state.iterations() *
                          run.capture.data.sent_count());
}
BENCHMARK(BM_FlowAnalysis);

static void BM_RadioEnvironmentQuery(benchmark::State& state) {
  radio::RadioEnvironment env(radio::unicom_3g_highspeed().radio, util::Rng(3));
  double t = 0.0;
  for (auto _ : state) {
    t += 0.001;
    benchmark::DoNotOptimize(
        env.drop_probability(radio::Direction::kDownlink,
                             util::TimePoint::from_seconds(t)));
  }
}
BENCHMARK(BM_RadioEnvironmentQuery);

BENCHMARK_MAIN();
