// Trace workflow example: simulate an HSR flow, archive its packet capture
// to a trace file (the role pcaps played in the paper), reload it, and run
// the full §III measurement methodology on it — a miniature tcptrace for
// hsrtrace files.
//
//   $ ./trace_analyzer [provider: mobile|unicom|telecom] [seconds] [seed]
//   $ ./trace_analyzer existing_trace.hsrtrace        # analyze a saved file
#include <iomanip>
#include <iostream>
#include <string>

#include "analysis/flow_analysis.h"
#include "args.h"
#include "model/params.h"
#include "radio/profiles.h"
#include "trace/trace_io.h"
#include "workload/scenario.h"

using namespace hsr;

namespace {

void report(const trace::FlowCapture& capture, unsigned w_m, unsigned b) {
  const analysis::FlowAnalysis a = analysis::analyze_flow(capture);
  std::cout << std::fixed << std::setprecision(3);
  std::cout << "--- flow report ---\n"
            << "span:                   " << a.span.to_seconds() << " s\n"
            << "unique segments:        " << a.unique_segments << "\n"
            << "goodput:                " << a.goodput_pps << " segments/s\n"
            << "mean RTT:               " << a.mean_rtt.to_millis() << " ms\n"
            << "data loss (all tx):     " << a.data_loss_rate * 100 << " %\n"
            << "data loss (first tx):   " << a.first_tx_loss_rate * 100 << " %\n"
            << "loss events (all/data): " << a.loss_event_rate_all * 100 << " % / "
            << a.loss_event_rate_data * 100 << " %\n"
            << "ACK loss:               " << a.ack_loss_rate * 100 << " %\n"
            << "fast retransmits:       " << a.fast_retransmits << "\n"
            << "timeout sequences:      " << a.timeout_sequences.size() << "\n";
  for (const auto& ts : a.timeout_sequences) {
    std::cout << "   seq " << std::setw(7) << ts.seq << "  at " << std::setw(8)
              << ts.first_retx.to_seconds() << " s  " << ts.num_timeouts
              << " timeout(s), recovery " << ts.duration().to_seconds() << " s  "
              << (ts.spurious ? "[spurious]" : "[data loss]") << "\n";
  }
  std::cout << "spurious share:         " << a.spurious_fraction * 100 << " %\n"
            << "q (in-recovery loss):   " << a.recovery_retx_loss_rate * 100 << " %\n"
            << "T (base RTO estimate):  " << a.mean_first_rto.to_seconds() << " s\n"
            << "P_a (episode estimate): " << a.ack_burst_loss_episode * 100 << " %\n\n";

  model::EstimationOptions opt;
  opt.b = b;
  opt.w_m = w_m;
  const model::FlowEvaluation ev = model::evaluate_flow(a, opt);
  std::cout << "--- model comparison (Eq. 22) ---\n"
            << "measured:  " << ev.trace_pps << " seg/s\n"
            << "Padhye:    " << ev.padhye_pps << " seg/s (D=" << ev.d_padhye * 100
            << " %)\n"
            << "enhanced:  " << ev.enhanced_pps << " seg/s (D=" << ev.d_enhanced * 100
            << " %)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string arg = argc > 1 ? argv[1] : "unicom";

  // Analyzing an existing trace file?
  if (arg.find('.') != std::string::npos) {
    auto loaded = trace::load_flow_capture(arg);
    if (!loaded.is_ok()) {
      std::cerr << "cannot load trace: " << loaded.status().to_string() << "\n";
      return 1;
    }
    std::cout << "loaded " << arg << "\n";
    report(loaded.value(), /*w_m=*/224, /*b=*/2);
    return 0;
  }

  workload::FlowRunConfig cfg;
  if (arg == "mobile") cfg.profile = radio::mobile_lte_highspeed();
  else if (arg == "telecom") cfg.profile = radio::telecom_3g_highspeed();
  else cfg.profile = radio::unicom_3g_highspeed();
  cfg.duration = util::Duration::from_seconds(examples::numeric_arg(
      argc, argv, 2, "seconds", 90.0, tools::kMinFlagSeconds, tools::kMaxFlagSeconds));
  cfg.seed = examples::numeric_arg<std::uint64_t>(argc, argv, 3, "seed", 7, 0,
                                                  tools::kMaxFlagSeed);

  std::cout << "simulating " << cfg.profile.name << " for "
            << cfg.duration.to_seconds() << " s (seed " << cfg.seed << ") ...\n";
  const workload::FlowRunResult run = workload::run_flow(cfg);

  const std::string path = "flow.hsrtrace";
  if (auto st = trace::save_flow_capture(path, run.capture); !st.is_ok()) {
    std::cerr << "warning: could not archive trace: " << st.to_string() << "\n";
  } else {
    std::cout << "capture archived to " << path << " (re-run with that path to "
              << "re-analyze offline)\n\n";
  }
  report(run.capture, cfg.profile.receiver_window_segments, cfg.tcp.delayed_ack_b);
  return 0;
}
