// `shared_cell`: one simulator carrying N senders through one bottleneck on
// one thread — workload::run_multi_flow on the mobile_lte_highspeed profile
// with the every-flow handoff-burst blackout `fairness_sweep --burst`
// scripts, then analysis::fairness_report. The event heap, net::Link's
// shared DropTail queue and demux, and fault::FaultInjector do nearly all
// the work; nothing is encoded, written or analyzed per flow.
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fairness.h"
#include "bench.h"
#include "radio/profiles.h"
#include "trace/trace_binary.h"
#include "util/crc32c.h"
#include "workload/multi_flow.h"

namespace hsrbench {

namespace {

namespace wl = hsr::workload;
using hsr::net::LinkStats;

// Scenarios one run cycles through: a single train trajectory is too small a
// sample of the radio environment for a steady per-run figure.
constexpr std::size_t kScenarios = 4;
// The handoff-burst blackout window of `fairness_sweep --burst 4 5`.
constexpr double kBurstBeginS = 4.0;
constexpr double kBurstEndS = 5.0;
// The warm-up scenario runs this share of the timed scenario's duration.
constexpr double kWarmupShare = 0.1;

// Scenario s of `fairness_sweep sweep --ns N,N,N,N --profile mobile
// --duration D --seed S --burst 4 5` (seed S + 101 s).
wl::MultiFlowSpec cell_spec(const Args& args, double duration_s, std::size_t s) {
  wl::MultiFlowSweepSpec sweep;
  sweep.profile = hsr::radio::mobile_lte_highspeed();
  sweep.flow_counts.assign(kScenarios, static_cast<unsigned>(args.flows));
  sweep.duration = hsr::util::Duration::from_seconds(duration_s);
  sweep.base_seed = args.seed;
  sweep.burst_begin = hsr::util::TimePoint::from_seconds(kBurstBeginS);
  sweep.burst_end = hsr::util::TimePoint::from_seconds(kBurstEndS);
  return sweep.scenario(s);
}

void add(LinkStats& sum, const LinkStats& s) {
  sum.sent += s.sent;
  sum.delivered += s.delivered;
  sum.bytes_delivered += s.bytes_delivered;
  sum.injected_duplicates += s.injected_duplicates;
  for (std::size_t c = 0; c < s.dropped_by_category.size(); ++c) {
    sum.dropped_by_category[c] += s.dropped_by_category[c];
  }
}

bool same(const LinkStats& a, const LinkStats& b) {
  return a.sent == b.sent && a.delivered == b.delivered &&
         a.bytes_delivered == b.bytes_delivered &&
         a.injected_duplicates == b.injected_duplicates &&
         a.dropped_by_category == b.dropped_by_category;
}

// Output checks that hold for any correct build: the scenario completed,
// per-flow LinkStats sum to the shared links' aggregates, and the Jain index
// lies in [1/N, 1].
bool check_cell(const wl::MultiFlowResult& r, const hsr::analysis::FairnessReport& fairness,
                std::size_t n, Report& report) {
  if (!r.status.is_ok()) {
    report.error("scenario: " + r.status.to_string());
    return false;
  }
  bool ok = true;
  if (r.flows.size() != n || r.captures.size() != n || fairness.flows.size() != n) {
    report.error("scenario reports " + std::to_string(r.flows.size()) + " flows, want " +
                 std::to_string(n));
    ok = false;
  }
  LinkStats down;
  LinkStats up;
  for (const wl::MultiFlowFlowResult& f : r.flows) {
    add(down, f.downlink_stats);
    add(up, f.uplink_stats);
  }
  if (!same(down, r.downlink_aggregate) || !same(up, r.uplink_aggregate)) {
    report.error("per-flow LinkStats do not sum to the shared links' aggregates");
    ok = false;
  }
  const double lo = 1.0 / static_cast<double>(n) - 1e-9;
  if (!(fairness.jain >= lo && fairness.jain <= 1.0 + 1e-9)) {
    report.error("Jain index " + std::to_string(fairness.jain) + " is outside [1/N, 1]");
    ok = false;
  }
  return ok;
}

// The first tenth of scenario s, run and checked like a timed one, so the
// timed scenario starts with the code and the allocator warm.
bool warm_up(const Args& args, std::size_t s, Report& report) {
  const wl::MultiFlowSpec warm = cell_spec(args, args.duration_s * kWarmupShare, s);
  const wl::MultiFlowResult r = wl::run_multi_flow(warm);
  const hsr::analysis::FairnessReport fairness =
      hsr::analysis::fairness_report(r.captures, warm.duration);
  return check_cell(r, fairness, args.flows, report);
}

void record_counters(const wl::MultiFlowResult& r, Report& report) {
  std::uint64_t retransmissions = 0, timeouts = 0, faults = 0, transmissions = 0;
  for (const wl::MultiFlowFlowResult& f : r.flows) {
    retransmissions += f.sender_stats.retransmissions;
    timeouts += f.sender_stats.timeouts;
    faults += f.faults_injected;
  }
  for (const hsr::trace::FlowCapture& c : r.captures) {
    transmissions += c.data.sent_count() + c.acks.sent_count();
  }
  // Summed over the traced units, whose scenarios differ.
  auto& c = report.counts;
  c["cell.flows"] += static_cast<double>(r.flows.size());
  c["sim.events"] += static_cast<double>(r.sim_events);
  c["sim.scheduled"] += static_cast<double>(r.sim_scheduled);
  c["sim.tombstones"] += static_cast<double>(r.sim_tombstones);
  c["tcp.retransmissions"] += static_cast<double>(retransmissions);
  c["tcp.timeouts"] += static_cast<double>(timeouts);
  c["fault.triggers"] += static_cast<double>(faults);
  c["net.queue_overflow_drops"] += static_cast<double>(r.downlink_aggregate.dropped_queue());
  c["engine.transmissions"] += static_cast<double>(transmissions);
}

}  // namespace

void run_shared_cell(const Args& args, Report& report) {
  const std::size_t n = args.flows;
  report.info.emplace_back("flows", std::to_string(n));
  report.info.emplace_back("scenarios", std::to_string(kScenarios));

  // Size and CRC-32C of each scenario's archived captures at its first run.
  std::vector<std::pair<std::size_t, std::uint32_t>> archived(kScenarios);
  double measured = 0.0;
  bool traced_any = false;
  for (int iter = 0; measured < args.seconds || report.setup_s.size() < kSetups ||
                     (args.trace && !traced_any);
       ++iter) {
    const bool traced = args.trace && iter % 2 == 1;
    // Traced runs time each scenario untraced, then traced.
    const std::size_t s = static_cast<std::size_t>(args.trace ? iter / 2 : iter) % kScenarios;

    // Every timed scenario gets its own set-up, so setup_s is a median over
    // set-ups spread through the whole run, like the timed units.
    const std::int64_t s0 = now_ns();
    const wl::MultiFlowSpec spec = cell_spec(args, args.duration_s, s);
    const bool warmed = warm_up(args, s, report);
    report.setup_s.push_back(seconds_since(s0));
    if (!warmed) return;

    Trace trace(report, iter);
    Trace* t = traced ? &trace : nullptr;
    const bool rss = start_unit_rss();
    const std::int64_t t0 = now_ns();
    const wl::MultiFlowResult r =
        timed(t, "workload.run_multi_flow", [&] { return wl::run_multi_flow(spec); });
    const hsr::analysis::FairnessReport fairness = timed(
        t, "analysis.fairness_report",
        [&] { return hsr::analysis::fairness_report(r.captures, spec.duration); });
    const std::int64_t t1 = now_ns();
    const double peak = rss ? unit_peak_rss_mb() : 0.0;
    const double wall = static_cast<double>(t1 - t0) * 1e-9;
    measured += wall;

    bool ok = check_cell(r, fairness, n, report);
    // A scenario's captures, archived, must be identical every time it runs.
    std::ostringstream archive;
    hsr::trace::write_capture_archive(archive, r.captures);
    const std::string bytes = archive.str();
    const std::pair<std::size_t, std::uint32_t> digest{bytes.size(), hsr::util::crc32c(bytes)};
    if (archived[s].first == 0) {
      archived[s] = digest;
    } else if (archived[s] != digest) {
      report.error("capture bytes differ between runs of one scenario");
      ok = false;
    }
    report.attempted += n;
    report.failed += ok ? 0 : n;
    report.iters.push_back(Report::Iter{traced, wall, static_cast<std::uint64_t>(n),
                                        static_cast<std::uint64_t>(bytes.size()), peak});
    if (traced) {
      trace.add("shared_cell.total", t0, t1);
      record_counters(r, report);
      traced_any = true;
    }
  }
}

}  // namespace hsrbench
