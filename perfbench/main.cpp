// hsrbench — the driver binary of the end-to-end benchmark. perfbench/run.py
// builds it, runs one workload per process and turns the report it prints
// into metrics; see perfbench/README.md.
//
//   hsrbench <campaign|scan_setup|corpus_scan|shared_cell> --work DIR
//            --seed S --seconds X --trace 0|1 --flows N --duration S
//            [--threads K]
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"
#include "util/fs.h"

namespace {

int usage() {
  std::cerr << "usage: hsrbench <campaign|scan_setup|corpus_scan|shared_cell> --work DIR\n"
               "                --seed S --seconds X --trace 0|1 --flows N --duration S\n"
               "                [--threads K]\n";
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

bool parse_double(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && out >= 0.0;
}

bool parse_args(int argc, char** argv, hsrbench::Args& a) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t n = 0;
    bool ok = has_value;
    if (arg == "--work" && has_value) {
      a.work = argv[++i];
    } else if (arg == "--seed" && has_value) {
      ok = parse_u64(argv[++i], a.seed);
    } else if (arg == "--seconds" && has_value) {
      ok = parse_double(argv[++i], a.seconds);
    } else if (arg == "--trace" && has_value) {
      ok = parse_u64(argv[++i], n) && n <= 1;
      a.trace = n == 1;
    } else if (arg == "--flows" && has_value) {
      ok = parse_u64(argv[++i], a.flows) && a.flows > 0;
    } else if (arg == "--duration" && has_value) {
      ok = parse_double(argv[++i], a.duration_s) && a.duration_s > 0.0;
    } else if (arg == "--threads" && has_value) {
      ok = parse_u64(argv[++i], n) && n > 0 && n <= 512;
      a.threads = static_cast<unsigned>(n);
    } else {
      ok = false;
    }
    if (!ok) {
      std::cerr << "hsrbench: bad argument '" << arg << "'\n";
      return false;
    }
  }
  return !a.work.empty() && a.flows > 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  hsrbench::Args args;
  args.workload = argv[1];
  if (!parse_args(argc, argv, args)) return usage();
  const hsr::util::Status made = hsr::util::Fs::real().create_directories(args.work);
  if (!made.is_ok()) {
    std::cerr << "hsrbench: " << made.to_string() << '\n';
    return 1;
  }

  hsrbench::Report report;
  if (args.workload == "campaign") {
    hsrbench::run_campaign(args, report);
  } else if (args.workload == "scan_setup") {
    hsrbench::run_scan_setup(args, report);
  } else if (args.workload == "corpus_scan") {
    hsrbench::run_corpus_scan(args, report);
  } else if (args.workload == "shared_cell") {
    hsrbench::run_shared_cell(args, report);
  } else {
    std::cerr << "hsrbench: unknown workload '" << args.workload << "'\n";
    return usage();
  }
  report.print(std::cout);
  return 0;
}
