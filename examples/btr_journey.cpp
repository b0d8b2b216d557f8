// Simulates a complete Beijing South -> Tianjin trip on the Beijing-Tianjin
// Intercity Railway (the paper's testbed): ~120 km in ~33 minutes, with
// acceleration out of Beijing South, a 300 km/h cruise, the Wuqing stop,
// and deceleration into Tianjin — while one TCP bulk download runs the
// whole way. Prints a per-interval goodput timeline with the train's speed
// and the radio events, and writes the full series to btr_journey.csv.
//
//   $ ./btr_journey [seed] [provider: mobile|unicom|telecom]
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>

#include "args.h"
#include "radio/profiles.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "trace/capture.h"
#include "util/csv.h"
#include "workload/scenario.h"

using namespace hsr;

int main(int argc, char** argv) {
  const std::uint64_t seed = examples::numeric_arg<std::uint64_t>(
      argc, argv, 1, "seed", 2015, 0, tools::kMaxFlagSeed);
  const std::string prov = argc > 2 ? argv[2] : "mobile";

  radio::ProviderProfile profile;
  if (prov == "telecom") profile = radio::telecom_3g_highspeed();
  else if (prov == "unicom") profile = radio::unicom_3g_highspeed();
  else profile = radio::mobile_lte_highspeed();

  // The BTR timetable, as a piecewise speed profile (~120 km total):
  //   accelerate out of Beijing South, cruise at 300 km/h,
  //   brake + 2 min dwell at Wuqing (~70 km), accelerate,
  //   cruise, brake into Tianjin.
  profile.radio.speed_profile = {
      {180.0, 150.0 / 3.6},  // 3 min pulling out + suburban running
      {120.0, 300.0 / 3.6},  // up to speed
      {540.0, 300.0 / 3.6},  // cruise leg 1
      {90.0, 120.0 / 3.6},   // braking for Wuqing
      {120.0, 0.0},          // Wuqing dwell
      {120.0, 200.0 / 3.6},  // pulling out
      {540.0, 300.0 / 3.6},  // cruise leg 2
      {150.0, 120.0 / 3.6},  // braking into Tianjin
      {60.0, 0.0},           // arrived
  };
  double total_s = 0.0;
  for (const auto& ph : profile.radio.speed_profile) total_s += ph.duration_s;

  std::cout << "=== Beijing South -> Tianjin, " << profile.name << ", seed "
            << seed << " ===\n"
            << "journey: " << total_s / 60.0 << " min\n\n";

  sim::Simulator sim;
  util::Rng rng(seed);
  radio::RadioEnvironment env(profile.radio, rng.fork("radio"));

  workload::FlowRunConfig base;
  base.profile = profile;
  tcp::ConnectionConfig cfg;
  cfg.tcp = workload::tcp_config_for(base);
  cfg.downlink.rate_bps = profile.downlink_rate_bps;
  cfg.downlink.prop_delay = profile.core_delay;
  cfg.downlink.queue_capacity = profile.queue_capacity;
  cfg.uplink.rate_bps = profile.uplink_rate_bps;
  cfg.uplink.prop_delay = profile.core_delay;

  tcp::Connection conn(sim, 1, cfg,
                       env.make_channel(radio::Direction::kDownlink, rng.fork("d")),
                       env.make_channel(radio::Direction::kUplink, rng.fork("u")));
  conn.start();

  std::ofstream csv_file("btr_journey.csv");
  util::CsvWriter csv(csv_file);
  csv.row("t_s", "position_km", "speed_kmh", "goodput_mbps", "timeouts_so_far");

  std::cout << std::fixed << std::setprecision(1);
  std::cout << "  time   position   speed      goodput   events\n";
  std::uint64_t prev_delivered = 0;
  std::uint64_t prev_handoffs = 0;
  const double step_s = 30.0;
  for (double t = step_s; t <= total_s; t += step_s) {
    sim.run_until(util::TimePoint::from_seconds(t));
    const std::uint64_t delivered = conn.receiver().stats().unique_segments;
    const double goodput_mbps =
        static_cast<double>(delivered - prev_delivered) * 1400 * 8 / step_s / 1e6;
    const double pos_km = env.position_m(sim.now()) / 1000.0;
    const double speed_kmh = env.speed_at(sim.now()) * 3.6;
    const std::uint64_t handoffs = env.handoff_count(sim.now());

    csv.row(t, pos_km, speed_kmh, goodput_mbps, conn.sender().stats().timeouts);
    if (static_cast<int>(t) % 60 == 0) {  // print one line per minute
      std::cout << "  " << std::setw(5) << t / 60.0 << "m  " << std::setw(6)
                << pos_km << " km  " << std::setw(4) << speed_kmh << " km/h  "
                << std::setw(6) << goodput_mbps << " Mb/s  "
                << (handoffs > prev_handoffs ? "handoff " : "")
                << (speed_kmh == 0.0 ? "[station]" : "") << "\n";
    }
    prev_delivered = delivered;
    prev_handoffs = handoffs;
  }

  const auto& s = conn.sender().stats();
  const auto& r = conn.receiver().stats();
  std::cout << "\n--- journey summary ---\n"
            << "distance covered:   " << env.position_m(sim.now()) / 1000.0 << " km\n"
            << "data delivered:     "
            << static_cast<double>(r.unique_segments) * 1400 / 1e6 << " MB\n"
            << "mean goodput:       " << conn.goodput_bps() / 1e6 << " Mb/s\n"
            << "handoffs crossed:   " << env.handoff_count(sim.now()) << "\n"
            << "timeouts:           " << s.timeouts << "\n"
            << "fast retransmits:   " << s.fast_retransmits << "\n"
            << "duplicate payloads: " << r.duplicate_segments << "\n"
            << "full series:        btr_journey.csv\n";
  return 0;
}
