// Parallel-runner scaling bench: wall time of generate_dataset at 1/2/4/8
// threads. Determinism makes the comparison exact — every thread count
// produces the identical corpus, so the only thing that varies is time.
//
// Emits:
//   bench_out/scaling.csv       one row per thread count
//   bench_out/BENCH_parallel.json  machine-readable summary
//
// Knobs: HSR_BENCH_SCALE / HSR_BENCH_SEED as everywhere else. Thread counts
// above the machine's core count are still measured (they must be correct,
// just not faster); the JSON records hardware_concurrency for context.
//
// Each thread count runs HSR_BENCH_REPS times (default 3): the row reports the
// best (minimum) wall time and the JSON carries the per-rep wall-time spread
// so bench_compare.py can widen its regression gate by the observed run-to-run
// noise instead of comparing two point samples (schema_version 3).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/common.h"

int main() {
  using namespace hsr;
  bench::header("Parallel corpus sharding: scaling");

  workload::DatasetSpec spec = workload::DatasetSpec::paper_table1(bench::scale());
  spec.seed = bench::seed();

  const int reps =
      bench::env_knob("HSR_BENCH_REPS", 3, [](int v) { return v >= 1 && v <= 1000; }, "[1, 1000]");

  struct Row {
    unsigned threads = 0;
    double wall_s = 0.0;  // best (minimum) across reps
    double wall_min_s = 0.0;
    double wall_max_s = 0.0;
    double wall_mean_s = 0.0;
    double wall_stddev_s = 0.0;
    std::uint64_t events = 0;
    double events_per_s = 0.0;
    double tombstone_ratio = 0.0;
    double speedup = 0.0;
  };
  std::vector<Row> rows;

  double base_wall = 0.0;
  std::uint64_t base_bytes = 0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    spec.threads = threads;
    Row row;
    row.threads = threads;
    std::vector<double> walls;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const workload::DatasetResult ds = workload::generate_dataset(spec);
      const auto t1 = std::chrono::steady_clock::now();
      walls.push_back(std::chrono::duration<double>(t1 - t0).count());

      row.events = ds.total_sim_events();
      // Idle heap entries (discounted timer wake-ups and cancelled events)
      // per seq handed out.
      row.tombstone_ratio = static_cast<double>(ds.total_sim_tombstones()) /
                            static_cast<double>(ds.total_sim_scheduled());

      // Cross-check: every run — any thread count, any rep — must produce the
      // identical corpus.
      std::uint64_t bytes = 0;
      for (const auto& f : ds.flows) bytes += f.bytes_captured;
      if (base_bytes == 0) {
        base_bytes = bytes;
      } else if (bytes != base_bytes) {
        std::cerr << "DETERMINISM VIOLATION: threads=" << threads
                  << " rep=" << rep << " corpus differs\n";
        return 1;
      }
    }

    row.wall_min_s = *std::min_element(walls.begin(), walls.end());
    row.wall_max_s = *std::max_element(walls.begin(), walls.end());
    double sum = 0.0;
    for (double w : walls) sum += w;
    row.wall_mean_s = sum / static_cast<double>(walls.size());
    double var = 0.0;
    for (double w : walls) var += (w - row.wall_mean_s) * (w - row.wall_mean_s);
    row.wall_stddev_s = std::sqrt(var / static_cast<double>(walls.size()));
    row.wall_s = row.wall_min_s;
    row.events_per_s = static_cast<double>(row.events) / row.wall_s;
    if (threads == 1) base_wall = row.wall_s;
    row.speedup = base_wall / row.wall_s;
    rows.push_back(row);

    std::cout << "threads=" << threads << "  wall=" << row.wall_s << " s"
              << " (spread " << row.wall_min_s << ".." << row.wall_max_s << ")"
              << "  events/s=" << row.events_per_s
              << "  speedup=" << row.speedup
              << "  tombstone_ratio=" << row.tombstone_ratio << "\n";
  }

  auto csv = bench::open_csv("scaling.csv");
  csv << "threads,wall_s,sim_events,events_per_s,speedup,tombstone_ratio\n";
  for (const auto& r : rows) {
    csv << r.threads << "," << r.wall_s << "," << r.events << ","
        << r.events_per_s << "," << r.speedup << "," << r.tombstone_ratio << "\n";
  }

  // Honest hardware context: speedup is bounded by the cores actually
  // available, so a curve recorded on a small container must say so —
  // otherwise a future diff on a bigger box reads as a regression (or this
  // one as a parallelism bug). max_meaningful_speedup makes the bound
  // explicit and core_limited flags every thread count the host can't back
  // with real parallelism.
  const unsigned hw = std::thread::hardware_concurrency();
  std::ofstream json(bench::out_dir() / "BENCH_parallel.json");
  json << "{\n  \"bench\": \"parallel_corpus_sharding\",\n"
       << "  \"schema_version\": 3,\n"
       << "  \"scale\": " << bench::scale() << ",\n"
       << "  \"seed\": " << bench::seed() << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"max_meaningful_speedup\": " << (hw == 0 ? 1 : hw) << ",\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"threads\": " << r.threads << ", \"wall_s\": " << r.wall_s
         << ", \"wall_spread\": {\"min\": " << r.wall_min_s
         << ", \"max\": " << r.wall_max_s
         << ", \"mean\": " << r.wall_mean_s
         << ", \"stddev\": " << r.wall_stddev_s << "}"
         << ", \"sim_events\": " << r.events
         << ", \"events_per_s\": " << r.events_per_s
         << ", \"speedup\": " << r.speedup
         << ", \"core_limited\": " << (r.threads > hw ? "true" : "false")
         << ", \"tombstone_ratio\": " << r.tombstone_ratio << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "[json] summary -> " << (bench::out_dir() / "BENCH_parallel.json").string()
            << "\n";
  return 0;
}
