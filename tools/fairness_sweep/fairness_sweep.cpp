// fairness_sweep — shared-bottleneck multi-flow campaigns and their figures:
// Jain's fairness index vs N, aggregate retransmission rate vs N, and
// per-flow goodput shares during a scripted handoff burst.
//
//   fairness_sweep run   --flows N [--profile P] [--duration S] [--seed X]
//                        [--stagger MS] [--burst B E] [--out FILE]
//   fairness_sweep sweep --ns 2,4,8,16 [--profile P] [--duration S]
//                        [--seed X] [--stride K] [--stagger MS]
//                        [--burst B E] [--threads K] [--out FILE]
//   fairness_sweep table --in FILE [--burst B E]
//   fairness_sweep selftest
//
// `run` executes ONE scenario of N concurrent senders through one bottleneck
// pair and prints its fairness report; `sweep` runs one scenario per entry
// of --ns (sharded across threads; the corpus bytes are identical for every
// --threads value) and prints the Jain-vs-N table. Both archive their
// captures as a single hsrtrace-b2 corpus when --out is given. `table`
// recomputes the same figures from an archived corpus alone — scenario
// boundaries are recovered from flow ids restarting at 1 — so the figures
// of a corpus shipped to another machine reproduce without the spec.
// --burst B E (seconds) scripts a downlink blackout over [B, E) on every
// flow's access stub and adds the goodput-share-during-burst table.
// `--profile` is telecom (default), unicom, or mobile.
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/fairness.h"
#include "numeric_flag.h"
#include "radio/profiles.h"
#include "trace/trace_binary.h"
#include "util/status.h"
#include "util/time.h"
#include "workload/dataset.h"
#include "workload/multi_flow.h"

namespace {

using hsr::util::Duration;
using hsr::util::TimePoint;

int usage() {
  std::cerr << "usage: fairness_sweep run   --flows N [--profile P] [--duration S]\n"
               "                            [--seed X] [--stagger MS] [--burst B E]\n"
               "                            [--out FILE]\n"
               "       fairness_sweep sweep --ns 2,4,8,16 [--profile P] [--duration S]\n"
               "                            [--seed X] [--stride K] [--stagger MS]\n"
               "                            [--burst B E] [--threads K] [--out FILE]\n"
               "       fairness_sweep table --in FILE [--burst B E]\n"
               "       fairness_sweep selftest\n";
  return 2;
}

using hsr::tools::kMaxFlagCount;
using hsr::tools::kMaxFlagSeconds;
using hsr::tools::kMaxFlagSeed;
using hsr::tools::kMinFlagSeconds;
using hsr::tools::parse_flag;

bool parse_flow_counts(const std::string& text, std::vector<unsigned>& out) {
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    unsigned n = 0;
    if (!parse_flag("--ns", item.c_str(), 1u, kMaxFlagCount, n)) return false;
    out.push_back(n);
  }
  return !out.empty();
}

bool parse_profile(const std::string& name, hsr::radio::ProviderProfile& out) {
  if (name == "telecom") {
    out = hsr::radio::telecom_3g_highspeed();
  } else if (name == "unicom") {
    out = hsr::radio::unicom_3g_highspeed();
  } else if (name == "mobile") {
    out = hsr::radio::mobile_lte_highspeed();
  } else {
    return false;
  }
  return true;
}

// One scenario's rows: the per-flow breakdown, then the summary line the
// Jain-vs-N table is built from.
void print_report(std::ostream& os, const hsr::analysis::FairnessReport& report) {
  os << "  flow  goodput_pps    share  data_sent  retx  retx_rate\n";
  for (const auto& f : report.flows) {
    os << "  " << std::setw(4) << f.flow << "  " << std::setw(11) << std::fixed
       << std::setprecision(3) << f.goodput_pps << "  " << std::setw(7)
       << std::setprecision(4) << f.goodput_share << "  " << std::setw(9)
       << f.data_sent << "  " << std::setw(4) << f.retransmissions << "  "
       << std::setw(9) << std::setprecision(4) << f.retransmission_rate << "\n";
  }
  os << "  N=" << report.flows.size() << " jain=" << std::setprecision(4)
     << report.jain << " aggregate_goodput_pps=" << std::setprecision(3)
     << report.aggregate_goodput_pps
     << " aggregate_retx_rate=" << std::setprecision(4)
     << report.aggregate_retransmission_rate << "\n";
}

void print_burst_shares(std::ostream& os,
                        const std::vector<hsr::trace::FlowCapture>& captures,
                        TimePoint begin, TimePoint end) {
  const auto shares = hsr::analysis::delivered_shares(captures, begin, end);
  os << "  burst [" << begin.to_seconds() << ", " << end.to_seconds()
     << ") s goodput shares:";
  for (const auto& s : shares) {
    os << " " << s.flow << ":" << std::fixed << std::setprecision(4) << s.share;
  }
  os << "\n";
}

// Jain-vs-N summary across scenarios — the figure tables EXPERIMENTS.md
// plots (fairness degrades and aggregate retransmissions climb with N).
void print_sweep_table(std::ostream& os,
                       const std::vector<hsr::analysis::FairnessReport>& reports) {
  os << "     N    jain  agg_goodput_pps  agg_retx_rate\n";
  for (const auto& r : reports) {
    os << "  " << std::setw(4) << r.flows.size() << "  " << std::setw(6)
       << std::fixed << std::setprecision(4) << r.jain << "  " << std::setw(15)
       << std::setprecision(3) << r.aggregate_goodput_pps << "  " << std::setw(13)
       << std::setprecision(4) << r.aggregate_retransmission_rate << "\n";
  }
}

// Splits an archived corpus back into scenarios: each scenario's captures
// start at flow id 1 (run_multi_flow numbers flows 1..N, and sweep_captures
// concatenates scenarios in order).
std::vector<std::vector<hsr::trace::FlowCapture>> group_scenarios(
    std::vector<hsr::trace::FlowCapture>&& captures) {
  std::vector<std::vector<hsr::trace::FlowCapture>> groups;
  for (auto& c : captures) {
    if (c.flow == 1 || groups.empty()) groups.emplace_back();
    groups.back().push_back(std::move(c));
  }
  return groups;
}

struct Options {
  hsr::radio::ProviderProfile profile = hsr::radio::telecom_3g_highspeed();
  std::vector<unsigned> flow_counts;
  double duration_s = 30.0;
  std::uint64_t seed = 1;
  std::uint64_t stride = 101;
  double stagger_ms = 0.0;
  double burst_begin_s = 0.0;
  double burst_end_s = 0.0;
  unsigned threads = 0;
  std::string out_path;
  std::string in_path;

  bool has_burst() const { return burst_end_s > burst_begin_s; }
};

bool parse_options(int argc, char** argv, int first, Options& opt) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--flows" && has_value) {
      unsigned n = 0;
      if (!parse_flag("--flows", argv[++i], 1u, kMaxFlagCount, n)) return false;
      opt.flow_counts = {n};
    } else if (arg == "--ns" && has_value) {
      if (!parse_flow_counts(argv[++i], opt.flow_counts)) return false;
    } else if (arg == "--profile" && has_value) {
      if (!parse_profile(argv[++i], opt.profile)) return false;
    } else if (arg == "--duration" && has_value) {
      if (!parse_flag("--duration", argv[++i], kMinFlagSeconds, kMaxFlagSeconds, opt.duration_s)) {
        return false;
      }
    } else if (arg == "--seed" && has_value) {
      if (!parse_flag("--seed", argv[++i], std::uint64_t{0}, kMaxFlagSeed, opt.seed)) {
        return false;
      }
    } else if (arg == "--stride" && has_value) {
      if (!parse_flag("--stride", argv[++i], std::uint64_t{0}, kMaxFlagSeed, opt.stride)) {
        return false;
      }
    } else if (arg == "--stagger" && has_value) {
      if (!parse_flag("--stagger", argv[++i], 0.0, kMaxFlagSeconds * 1000.0,
                      opt.stagger_ms)) {
        return false;
      }
    } else if (arg == "--burst" && i + 2 < argc) {
      if (!parse_flag("--burst", argv[i + 1], 0.0, kMaxFlagSeconds, opt.burst_begin_s) ||
          !parse_flag("--burst", argv[i + 2], 0.0, kMaxFlagSeconds, opt.burst_end_s)) {
        return false;
      }
      if (opt.burst_end_s <= opt.burst_begin_s) {
        std::cerr << "fairness_sweep: bad --burst: end must follow begin\n";
        return false;
      }
      i += 2;
    } else if (arg == "--threads" && has_value) {
      if (!parse_flag("--threads", argv[++i], 0u, hsr::workload::kMaxBenchThreads,
                      opt.threads)) {
        return false;
      }
    } else if (arg == "--out" && has_value) {
      opt.out_path = argv[++i];
    } else if (arg == "--in" && has_value) {
      opt.in_path = argv[++i];
    } else {
      std::cerr << "fairness_sweep: bad argument '" << arg << "'\n";
      return false;
    }
  }
  return true;
}

hsr::workload::MultiFlowSweepSpec sweep_spec(const Options& opt) {
  hsr::workload::MultiFlowSweepSpec spec;
  spec.profile = opt.profile;
  spec.flow_counts = opt.flow_counts;
  spec.duration = Duration::from_seconds(opt.duration_s);
  spec.base_seed = opt.seed;
  spec.seed_stride = opt.stride;
  spec.start_stagger = Duration::from_seconds(opt.stagger_ms / 1000.0);
  if (opt.has_burst()) {
    spec.burst_begin = TimePoint::from_seconds(opt.burst_begin_s);
    spec.burst_end = TimePoint::from_seconds(opt.burst_end_s);
  }
  spec.threads = opt.threads;
  return spec;
}

int run_or_sweep(const Options& opt, bool single) {
  if (opt.flow_counts.empty()) {
    std::cerr << "fairness_sweep: " << (single ? "--flows" : "--ns")
              << " is required\n";
    return usage();
  }
  const hsr::workload::MultiFlowSweepSpec spec = sweep_spec(opt);
  std::vector<hsr::workload::MultiFlowResult> results =
      hsr::workload::run_multi_flow_sweep(spec);
  for (const auto& r : results) {
    if (!r.status.is_ok()) {
      std::cerr << "fairness_sweep: scenario failed: " << r.status.message() << "\n";
      return 1;
    }
  }

  std::vector<hsr::analysis::FairnessReport> reports;
  reports.reserve(results.size());
  for (std::size_t s = 0; s < results.size(); ++s) {
    reports.push_back(
        hsr::analysis::fairness_report(results[s].captures, spec.duration));
    std::cout << "scenario " << s << " (N=" << opt.flow_counts[s]
              << ", seed=" << (opt.seed + s * opt.stride)
              << ", handoffs=" << results[s].handoffs << ")\n";
    print_report(std::cout, reports.back());
    if (opt.has_burst()) {
      print_burst_shares(std::cout, results[s].captures, spec.burst_begin,
                         spec.burst_end);
    }
  }
  if (!single && reports.size() > 1) {
    std::cout << "sweep summary\n";
    print_sweep_table(std::cout, reports);
  }

  if (!opt.out_path.empty()) {
    const std::vector<hsr::trace::FlowCapture> captures =
        hsr::workload::sweep_captures(std::move(results));
    const hsr::util::Status saved =
        hsr::trace::save_capture_archive(opt.out_path, captures);
    if (!saved.is_ok()) {
      std::cerr << "fairness_sweep: save failed: " << saved.message() << "\n";
      return 1;
    }
    std::cout << "wrote " << captures.size() << " captures -> " << opt.out_path
              << "\n";
  }
  return 0;
}

int table_from_corpus(const Options& opt) {
  if (opt.in_path.empty()) {
    std::cerr << "fairness_sweep: table needs --in FILE\n";
    return usage();
  }
  std::ifstream is(opt.in_path, std::ios::binary);
  if (!is) {
    std::cerr << "fairness_sweep: cannot open " << opt.in_path << "\n";
    return 1;
  }
  auto corpus = hsr::trace::read_binary_corpus(is);
  if (!corpus.is_ok()) {
    std::cerr << "fairness_sweep: " << corpus.status().message() << "\n";
    return 1;
  }
  const auto groups = group_scenarios(std::move(corpus.value().flows));
  std::vector<hsr::analysis::FairnessReport> reports;
  reports.reserve(groups.size());
  for (std::size_t s = 0; s < groups.size(); ++s) {
    // No spec at hand: goodputs normalize over the longest capture span.
    reports.push_back(hsr::analysis::fairness_report(groups[s]));
    std::cout << "scenario " << s << " (N=" << groups[s].size() << ")\n";
    print_report(std::cout, reports.back());
    if (opt.has_burst()) {
      print_burst_shares(std::cout, groups[s],
                         TimePoint::from_seconds(opt.burst_begin_s),
                         TimePoint::from_seconds(opt.burst_end_s));
    }
  }
  if (reports.size() > 1) {
    std::cout << "sweep summary\n";
    print_sweep_table(std::cout, reports);
  }
  return 0;
}

int selftest() {
  // Jain bounds: equal shares pin 1.0, one hog pins 1/n.
  {
    const double equal = hsr::analysis::jain_index({5.0, 5.0, 5.0, 5.0});
    const double hog = hsr::analysis::jain_index({1.0, 0.0, 0.0, 0.0});
    if (equal < 0.999999 || equal > 1.000001) {
      std::cerr << "selftest: jain(equal) != 1 (" << equal << ")\n";
      return 1;
    }
    if (hog < 0.249999 || hog > 0.250001) {
      std::cerr << "selftest: jain(hog) != 1/4 (" << hog << ")\n";
      return 1;
    }
  }

  // A small sweep is byte-identical across thread counts, and its corpus
  // round-trips through the archive format.
  hsr::workload::MultiFlowSweepSpec spec;
  spec.profile = hsr::radio::telecom_3g_highspeed();
  spec.flow_counts = {1, 2, 3};
  spec.duration = Duration::from_seconds(3.0);
  spec.base_seed = 42;
  spec.burst_begin = TimePoint::from_seconds(1.0);
  spec.burst_end = TimePoint::from_seconds(2.0);

  std::ostringstream archives[2];
  for (int pass = 0; pass < 2; ++pass) {
    spec.threads = pass == 0 ? 1 : 2;
    std::vector<hsr::workload::MultiFlowResult> results =
        hsr::workload::run_multi_flow_sweep(spec);
    for (const auto& r : results) {
      if (!r.status.is_ok()) {
        std::cerr << "selftest: scenario failed: " << r.status.message() << "\n";
        return 1;
      }
    }
    if (pass == 0) {
      // Sanity on the live results: group sizes, shares summing to one,
      // Jain within its mathematical bounds.
      for (std::size_t s = 0; s < results.size(); ++s) {
        const auto report =
            hsr::analysis::fairness_report(results[s].captures, spec.duration);
        const std::size_t n = spec.flow_counts[s];
        if (report.flows.size() != n) {
          std::cerr << "selftest: report has " << report.flows.size()
                    << " flows, want " << n << "\n";
          return 1;
        }
        if (report.jain < 1.0 / static_cast<double>(n) - 1e-9 ||
            report.jain > 1.0 + 1e-9) {
          std::cerr << "selftest: jain out of bounds: " << report.jain << "\n";
          return 1;
        }
        double share_sum = 0.0;
        for (const auto& f : report.flows) share_sum += f.goodput_share;
        if (report.aggregate_goodput_pps > 0.0 &&
            (share_sum < 0.999999 || share_sum > 1.000001)) {
          std::cerr << "selftest: shares sum to " << share_sum << "\n";
          return 1;
        }
      }
    }
    hsr::trace::write_capture_archive(
        archives[pass],
        hsr::workload::sweep_captures(std::move(results)));
  }
  if (archives[0].str() != archives[1].str()) {
    std::cerr << "selftest: corpus bytes differ across thread counts\n";
    return 1;
  }

  // Archive round trip: the reader recovers the same scenarios and figures.
  std::istringstream is(archives[0].str());
  auto corpus = hsr::trace::read_binary_corpus(is);
  if (!corpus.is_ok()) {
    std::cerr << "selftest: corpus reread failed: " << corpus.status().message()
              << "\n";
    return 1;
  }
  const auto groups = group_scenarios(std::move(corpus.value().flows));
  if (groups.size() != spec.flow_counts.size()) {
    std::cerr << "selftest: recovered " << groups.size() << " scenarios, want "
              << spec.flow_counts.size() << "\n";
    return 1;
  }
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].size() != spec.flow_counts[s]) {
      std::cerr << "selftest: scenario " << s << " has " << groups[s].size()
                << " captures, want " << spec.flow_counts[s] << "\n";
      return 1;
    }
    const auto shares = hsr::analysis::delivered_shares(
        groups[s], spec.burst_begin, spec.burst_end);
    if (shares.size() != groups[s].size()) {
      std::cerr << "selftest: burst shares missing flows\n";
      return 1;
    }
  }

  std::cout << "selftest: ok\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "selftest") return selftest();

  Options opt;
  if (!parse_options(argc, argv, 2, opt)) return usage();
  if (cmd == "run") return run_or_sweep(opt, /*single=*/true);
  if (cmd == "sweep") return run_or_sweep(opt, /*single=*/false);
  if (cmd == "table") return table_from_corpus(opt);
  std::cerr << "fairness_sweep: unknown command '" << cmd << "'\n";
  return usage();
}
