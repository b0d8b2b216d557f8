// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures.
//
// Environment knobs:
//   HSR_BENCH_SCALE  corpus scale in (0,1]; default 0.15 so that the whole
//                    bench suite finishes in seconds. Use 1.0 to regenerate
//                    the full 255-flow corpus (as reported in EXPERIMENTS.md).
//   HSR_BENCH_SEED   experiment seed; default 2015.
//   HSR_BENCH_OUT    directory for full-resolution CSV dumps; default
//                    "bench_out" under the current directory.
// A numeric knob that is set must parse completely and lie in its range;
// anything else stops the binary with exit status 2 and a message naming
// the knob, instead of silently running a different experiment.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>

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

inline std::filesystem::path out_dir() {
  const char* s = std::getenv("HSR_BENCH_OUT");
  std::filesystem::path dir = s ? s : "bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

// Opens a CSV dump file in the output directory.
inline std::ofstream open_csv(const std::string& name) {
  const auto path = out_dir() / name;
  std::ofstream f(path);
  std::cout << "[csv] full data -> " << path.string() << "\n";
  return f;
}

// The corpus every corpus-driven figure shares (generated once per binary).
inline const workload::DatasetResult& corpus() {
  static const workload::DatasetResult ds = [] {
    workload::DatasetSpec spec = workload::DatasetSpec::paper_table1(scale());
    spec.seed = seed();
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

inline void header(const std::string& title) {
  std::cout << "==== " << title << " ====\n";
  std::cout << std::fixed << std::setprecision(3);
}

}  // namespace hsr::bench
