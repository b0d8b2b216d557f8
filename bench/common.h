// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures.
//
// Environment knobs:
//   HSR_BENCH_SCALE  corpus scale in (0,1]; default 0.15 so that the whole
//                    bench suite finishes in seconds. Use 1.0 to regenerate
//                    the full 255-flow corpus (as reported in EXPERIMENTS.md).
//   HSR_BENCH_SEED   experiment seed; default 2015.
//   HSR_BENCH_THREADS corpus-generation worker threads in [1, 512]; default
//                    hardware concurrency.
//   HSR_BENCH_OUT    directory for full-resolution CSV dumps and BENCH_*.json
//                    summaries, created if missing; default "bench_out"
//                    under the current directory.
// A numeric knob that is set must parse completely and lie in its range,
// and HSR_BENCH_OUT must be or become a directory; anything else stops the
// binary with exit status 2 and a message naming the knob, instead of
// silently running a different experiment. A file that cannot be opened or
// written stops it with exit status 1 and a message naming the file.
#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/text.h"
#include "workload/dataset.h"

namespace hsr::bench {

// Reads numeric environment knob `name` (unset: `fallback`) strictly: the
// whole value must pass util::parse_number and satisfy `in_range`.
template <typename T, typename InRange>
T env_knob(const char* name, T fallback, InRange in_range, const char* range_text) {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  T value{};
  if (!util::parse_number(text, value) || !in_range(value)) {
    std::cerr << name << "='" << text << "' is not a number in " << range_text << '\n';
    std::exit(2);
  }
  return value;
}

inline double scale() {
  return env_knob("HSR_BENCH_SCALE", 0.15, [](double v) { return v > 0.0 && v <= 1.0; },
                  "(0, 1]");
}

inline std::uint64_t seed() {
  return env_knob<std::uint64_t>("HSR_BENCH_SEED", 2015, [](std::uint64_t) { return true; },
                                 "[0, 2^64)");
}

// Worker threads for corpus generation; 0 (unset) = hardware concurrency.
inline unsigned threads() {
  return env_knob("HSR_BENCH_THREADS", 0u,
                  [](unsigned v) { return v >= 1 && v <= workload::kMaxBenchThreads; },
                  "[1, 512]");
}

// The output directory, created with its missing ancestors.
inline std::filesystem::path out_dir() {
  const char* s = std::getenv("HSR_BENCH_OUT");
  const std::filesystem::path dir = s ? s : "bench_out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!std::filesystem::is_directory(dir, ec)) {
    std::cerr << "HSR_BENCH_OUT='" << dir.string() << "' is not a directory and cannot be"
              << " created\n";
    std::exit(2);
  }
  return dir;
}

// Stops the binary when `stream`, opened on `path`, failed to open or write.
inline void check_written(const std::ostream& stream, const std::filesystem::path& path) {
  if (stream) return;
  std::cerr << "cannot write '" << path.string() << "': " << std::strerror(errno) << '\n';
  std::exit(1);
}

// Opens a CSV dump file in the output directory.
inline std::ofstream open_csv(const std::string& name) {
  const auto path = out_dir() / name;
  std::ofstream f(path);
  check_written(f, path);
  std::cout << "[csv] full data -> " << path.string() << "\n";
  return f;
}

// The corpus every corpus-driven figure shares (generated once per binary).
// The output directory is resolved first, so a bad HSR_BENCH_OUT stops the
// binary before any simulation.
inline const workload::DatasetResult& corpus() {
  static const workload::DatasetResult ds = [] {
    out_dir();
    workload::DatasetSpec spec = workload::DatasetSpec::paper_table1(scale());
    spec.seed = seed();
    spec.threads = threads();
    std::cerr << "[bench] generating corpus: scale=" << scale()
              << " seed=" << seed() << " ..." << std::flush;
    auto result = workload::generate_dataset(spec);
    std::cerr << " done (" << result.flows.size() << " flows)\n";
    return result;
  }();
  return ds;
}

// One "paper vs measured" comparison row.
inline void compare_row(const std::string& name, double paper, double measured,
                        const std::string& unit) {
  std::cout << std::left << std::setw(44) << name << " paper=" << std::setw(10)
            << paper << " measured=" << std::setw(10) << measured << " " << unit
            << "\n";
}

// Wall seconds since `t0` on the steady clock.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Per-rep dispersion of a throughput metric, recorded beside its best-of-N
// value so a reader can see how far one run's reps spread.
struct Spread {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;

  static Spread of(const std::vector<double>& xs) {
    Spread s;
    if (xs.empty()) return s;
    s.min = s.max = xs[0];
    double sum = 0.0;
    for (double x : xs) {
      s.min = std::min(s.min, x);
      s.max = std::max(s.max, x);
      sum += x;
    }
    s.mean = sum / static_cast<double>(xs.size());
    double sq = 0.0;
    for (double x : xs) sq += (x - s.mean) * (x - s.mean);
    // Population stddev: the reps ARE the whole sample being described.
    s.stddev = std::sqrt(sq / static_cast<double>(xs.size()));
    return s;
  }

  // The spread of `k` times the metric, for a second unit of the same
  // reading (MB/s beside flows/s over fixed work).
  Spread scaled(double k) const { return {min * k, max * k, mean * k, stddev * k}; }
};

// The rep with the highest score, and the spread of every rep's score.
template <class Result>
struct BestOf {
  Result best;
  Spread spread;
};

// Calls `run` `reps` times and keeps the result `score` rates highest: peak
// throughput is the stable statistic on a shared box (allocation counts are
// deterministic, so every rep agrees on them).
template <class Run, class Score>
BestOf<std::invoke_result_t<Run&>> best_of(int reps, Run run, Score score) {
  BestOf<std::invoke_result_t<Run&>> out{run(), {}};
  std::vector<double> scores{score(out.best)};
  for (int i = 1; i < reps; ++i) {
    auto r = run();
    scores.push_back(score(r));
    if (scores.back() > score(out.best)) out.best = std::move(r);
  }
  out.spread = Spread::of(scores);
  return out;
}

// A BENCH_*.json summary: run facts (tools/bench_compare.py reads "bench"
// and "schema_version"), a flat "metrics" object of best-of-N values and a
// "spread" object for every throughput. Keys ending in "_per_s" are
// throughputs (higher is better); keys containing "allocs_per" are
// allocation ratios (lower is better; their counts are deterministic, so
// they carry no spread).
class Summary {
 public:
  template <class T>
  void fact(const std::string& name, const T& value) {
    std::ostringstream os;
    os.precision(10);
    if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      os << '"' << value << '"';
    } else {
      os << std::boolalpha << value;
    }
    facts_.emplace_back(name, os.str());
  }
  void metric(const std::string& name, double value) { metrics_.emplace_back(name, value); }
  // A throughput: its best-of-N value and the spread of every rep.
  void rate(const std::string& name, double best, const Spread& spread) {
    metric(name, best);
    spreads_.emplace_back(name, spread);
  }
  const std::vector<std::pair<std::string, double>>& metrics() const { return metrics_; }

  // Writes the summary to `path`; stops the binary if it cannot.
  void write(const std::filesystem::path& path) const {
    std::ofstream json(path);
    json.precision(10);
    json << "{\n";
    for (const auto& [name, value] : facts_) json << "  \"" << name << "\": " << value << ",\n";
    json << "  \"metrics\": {\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      json << "    \"" << metrics_[i].first << "\": " << metrics_[i].second
           << (i + 1 < metrics_.size() ? ",\n" : "\n");
    }
    json << "  },\n  \"spread\": {\n";
    for (std::size_t i = 0; i < spreads_.size(); ++i) {
      const Spread& s = spreads_[i].second;
      json << "    \"" << spreads_[i].first << "\": {\"min\": " << s.min << ", \"max\": "
           << s.max << ", \"mean\": " << s.mean << ", \"stddev\": " << s.stddev << "}"
           << (i + 1 < spreads_.size() ? ",\n" : "\n");
    }
    json << "  }\n}\n";
    json.close();
    check_written(json, path);
    std::cout << "[json] summary -> " << path.string() << "\n";
  }

 private:
  std::vector<std::pair<std::string, std::string>> facts_;  // rendered JSON values
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, Spread>> spreads_;
};

inline void header(const std::string& title) {
  std::cout << "==== " << title << " ====\n";
  std::cout << std::fixed << std::setprecision(3);
}

}  // namespace hsr::bench
