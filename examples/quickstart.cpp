// Quickstart: simulate one TCP flow on a high-speed train, analyze the
// capture exactly as the paper's methodology does, and compare the measured
// goodput against the Padhye model and the enhanced model.
//
//   $ ./quickstart [seed] [duration_s]
#include <iostream>

#include "analysis/flow_analysis.h"
#include "args.h"
#include "model/params.h"
#include "radio/profiles.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace hsr;

  workload::FlowRunConfig cfg;
  cfg.profile = radio::mobile_lte_highspeed();
  cfg.seed = examples::numeric_arg<std::uint64_t>(argc, argv, 1, "seed", 42, 0,
                                                  tools::kMaxFlagSeed);
  cfg.duration = util::Duration::from_seconds(examples::numeric_arg(
      argc, argv, 2, "duration_s", 60.0, tools::kMinFlagSeconds, tools::kMaxFlagSeconds));

  std::cout << "=== hsrtcp quickstart ===\n"
            << "profile:  " << cfg.profile.name << " (300 km/h)\n"
            << "duration: " << cfg.duration.to_seconds() << " s, seed " << cfg.seed
            << "\n\n";

  // 1. Run the flow on the simulated HSR path.
  const workload::FlowRunResult run = workload::run_flow(cfg);
  std::cout << "--- ground truth (TCP stack) ---\n"
            << "segments sent:     " << run.sender_stats.segments_sent << "\n"
            << "retransmissions:   " << run.sender_stats.retransmissions << "\n"
            << "timeouts:          " << run.sender_stats.timeouts << "\n"
            << "fast retransmits:  " << run.sender_stats.fast_retransmits << "\n"
            << "max RTO backoff:   " << run.sender_stats.max_backoff_seen << "x\n"
            << "unique delivered:  " << run.receiver_stats.unique_segments << "\n"
            << "duplicates:        " << run.receiver_stats.duplicate_segments << "\n"
            << "handoffs crossed:  " << run.handoffs << "\n"
            << "goodput:           " << run.goodput_bps / 1e6 << " Mbit/s\n\n";

  // 2. Analyze the packet capture (methodology of paper §III).
  const analysis::FlowAnalysis a = analysis::analyze_flow(run.capture);
  std::cout << "--- trace analysis (paper §III methodology) ---\n"
            << "data loss rate:         " << a.data_loss_rate * 100 << " %\n"
            << "ACK loss rate:          " << a.ack_loss_rate * 100 << " %\n"
            << "timeout sequences:      " << a.timeout_sequences.size() << "\n"
            << "spurious timeouts:      " << a.spurious_fraction * 100 << " %\n"
            << "recovery retx loss (q): " << a.recovery_retx_loss_rate * 100 << " %\n"
            << "mean recovery duration: " << a.mean_recovery_duration.to_seconds()
            << " s\n"
            << "mean RTT:               " << a.mean_rtt.to_millis() << " ms\n"
            << "ACK burst loss (P_a):   " << a.ack_burst_loss_probability * 100
            << " %\n\n";

  // 3. Model comparison (paper §IV-E).
  model::EstimationOptions opt;
  opt.b = cfg.tcp.delayed_ack_b;
  opt.w_m = cfg.profile.receiver_window_segments;
  const model::FlowEvaluation ev = model::evaluate_flow(a, opt);
  std::cout << "--- model vs trace (Eq. 22 deviation) ---\n"
            << "measured goodput:  " << ev.trace_pps << " segments/s\n"
            << "Padhye model:      " << ev.padhye_pps << " segments/s  (D = "
            << ev.d_padhye * 100 << " %)\n"
            << "enhanced model:    " << ev.enhanced_pps << " segments/s  (D = "
            << ev.d_enhanced * 100 << " %)\n";
  return 0;
}
