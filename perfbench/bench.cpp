#include "bench.h"

#include <malloc.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>

#include "util/time.h"

namespace hsrbench {

namespace {

using Clock = std::chrono::steady_clock;

// A copy of tools/corpus_campaign's shape_spec (it has internal linkage
// there). Shapes a DatasetSpec with exactly `flows` planned flows: the
// stationary control corpus gets ~1/8 (at least one per provider), and the
// remainder is split over the four Table I campaigns by largest-remainder
// apportionment of the paper's 52:73:65:65 mix. perfbench/test_perfbench.py
// pins the two copies to the same corpus bytes and stats digest.
hsr::workload::DatasetSpec shape_spec(std::uint64_t flows) {
  using hsr::workload::DatasetSpec;
  DatasetSpec spec = DatasetSpec::paper_table1(1.0);
  constexpr unsigned kProviders = 3;  // distinct providers -> stationary blocks

  std::uint64_t stationary_pp = flows / (8 * kProviders);
  if (stationary_pp == 0) stationary_pp = 1;
  if (flows <= kProviders + spec.campaigns.size()) stationary_pp = 1;
  std::uint64_t remaining = flows > stationary_pp * kProviders
                                ? flows - stationary_pp * kProviders
                                : spec.campaigns.size();

  const std::uint64_t weights[] = {52, 73, 65, 65};
  const std::uint64_t weight_sum = 255;
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < spec.campaigns.size(); ++i) {
    std::uint64_t share = remaining * weights[i] / weight_sum;
    if (share == 0) share = 1;
    spec.campaigns[i].flows = static_cast<unsigned>(share);
    assigned += share;
  }
  // Largest campaign absorbs the apportionment remainder (either sign).
  auto& top = spec.campaigns[1];
  if (assigned < remaining) {
    top.flows += static_cast<unsigned>(remaining - assigned);
  } else if (assigned > remaining && top.flows > assigned - remaining) {
    top.flows -= static_cast<unsigned>(assigned - remaining);
  }
  spec.stationary_flows_per_provider = static_cast<unsigned>(stationary_pp);
  return spec;
}

}  // namespace

std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin)
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

bool start_unit_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << '5' << std::flush;  // 5 = reset the peak RSS (VmHWM) to the current RSS
  return static_cast<bool>(clear);
}

double unit_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

hsr::workload::DatasetSpec campaign_spec(std::uint64_t flows, double duration_s,
                                         std::uint64_t seed, unsigned threads) {
  hsr::workload::DatasetSpec spec = shape_spec(flows);
  spec.flow_duration_min = hsr::util::Duration::from_seconds(duration_s);
  spec.flow_duration_max = spec.flow_duration_min;
  spec.threads = threads;
  spec.seed = seed;
  return spec;
}

std::string scan_corpus_path(const Args& args) { return args.work + "/scan_corpus.hsrb"; }
std::string scan_digest_path(const Args& args) { return args.work + "/scan_corpus.stats"; }

void Report::print(std::ostream& os) const {
  os << std::setprecision(17);
  for (const double s : setup_s) os << "setup " << s << '\n';
  for (const Iter& it : iters) {
    os << "iter " << (it.traced ? 'T' : 'U') << ' ' << it.wall_s << ' ' << it.flows << ' '
       << it.bytes << ' ' << it.peak_rss_mb << '\n';
  }
  os << "attempt " << attempted << ' ' << failed << '\n';
  for (const std::string& e : errors) os << "error " << e << '\n';
  for (const auto& [key, value] : info) os << "info " << key << ' ' << value << '\n';
  for (const auto& [name, value] : counts) os << "count " << name << ' ' << value << '\n';
  for (const Span& s : spans) {
    os << "span " << s.iter << ' ' << s.name << ' ' << s.worker << ' ' << s.start_ns << ' '
       << s.end_ns << '\n';
  }
}

}  // namespace hsrbench
