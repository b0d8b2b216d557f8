// Corpus report: generates a (scaled) synthetic replica of the paper's
// Table I dataset, runs the §III measurement methodology over every flow,
// and prints the headline statistics side by side with the paper's numbers.
//
//   $ ./corpus_report [scale] [seed]
//
// scale in [0.01, 1] shrinks the 255-flow corpus proportionally (default
// 0.2 for a quick run; use 1.0 to regenerate the full corpus).
#include <iomanip>
#include <iostream>

#include "args.h"
#include "model/params.h"
#include "util/stats.h"
#include "workload/dataset.h"

int main(int argc, char** argv) {
  using namespace hsr;

  const double scale = examples::numeric_arg(argc, argv, 1, "scale", 0.2, 0.01, 1.0);
  workload::DatasetSpec spec = workload::DatasetSpec::paper_table1(scale);
  spec.seed = examples::numeric_arg<std::uint64_t>(argc, argv, 2, "seed", spec.seed, 0,
                                                   tools::kMaxFlagSeed);

  std::cout << "Generating corpus (scale " << scale << ", seed " << spec.seed
            << ") ...\n";
  const workload::DatasetResult ds = workload::generate_dataset(spec);
  const analysis::Corpus::Headline h = ds.corpus.headline();

  std::cout << std::fixed << std::setprecision(3);
  std::cout << "\nflows: " << ds.flows.size() << " ("
            << h.flows_highspeed << " high-speed + " << h.flows_stationary
            << " stationary), captures " << ds.total_capture_gb() << " GB\n\n";

  const auto row = [](const char* name, double paper, double measured,
                      const char* unit) {
    std::cout << std::left << std::setw(38) << name << " paper=" << std::setw(9)
              << paper << " measured=" << std::setw(9) << measured << " " << unit
              << "\n";
  };
  row("mean recovery duration (high-speed)", 5.05, h.mean_recovery_s_highspeed, "s");
  row("mean recovery duration (stationary)", 0.65, h.mean_recovery_s_stationary, "s");
  row("spurious timeout share", 49.24, h.spurious_timeout_share * 100, "%");
  row("mean ACK loss (high-speed)", 0.661, h.mean_ack_loss_highspeed * 100, "%");
  row("mean ACK loss (stationary)", 0.0718, h.mean_ack_loss_stationary * 100, "%");
  row("mean data loss (high-speed)", 0.7526, h.mean_data_loss_highspeed * 100, "%");
  row("mean in-recovery retx loss (q)", 27.26, h.mean_recovery_loss_highspeed * 100, "%");

  // Model accuracy over the high-speed corpus (Fig. 10 aggregate).
  util::RunningStats d_padhye, d_enhanced;
  for (const auto& f : ds.flows) {
    // Exclude non-steady-state flows (dominated by one dead zone; see
    // bench_fig10 for the rationale).
    if (!f.high_speed || f.goodput_pps < 2.0 ||
        f.analysis.recovery_time_fraction > 0.5) {
      continue;
    }
    model::EstimationOptions opt;
    opt.b = f.delayed_ack_b;
    opt.w_m = f.receiver_window;
    const model::FlowEvaluation ev = model::evaluate_flow(f.analysis, opt);
    d_padhye.add(ev.d_padhye);
    d_enhanced.add(ev.d_enhanced);
  }
  std::cout << "\n--- model deviation D (high-speed corpus) ---\n";
  row("mean D, Padhye model", 21.96, d_padhye.mean() * 100, "%");
  row("mean D, enhanced model", 5.66, d_enhanced.mean() * 100, "%");
  row("accuracy improvement", 16.30,
      (d_padhye.mean() - d_enhanced.mean()) * 100, "pp");

  // Per-provider flow counts (Table I sanity).
  std::cout << "\n--- per-provider (high-speed) ---\n";
  for (const char* prov : {"China Mobile", "China Unicom", "China Telecom"}) {
    util::RunningStats goodput, ack_loss, recovery;
    for (const auto& f : ds.flows) {
      if (!f.high_speed || f.provider != prov) continue;
      goodput.add(f.goodput_pps);
      ack_loss.add(f.analysis.ack_loss_rate);
      if (f.analysis.has_timeouts())
        recovery.add(f.analysis.mean_recovery_duration.to_seconds());
    }
    std::cout << std::left << std::setw(14) << prov << " flows=" << std::setw(4)
              << goodput.count() << " goodput=" << std::setw(8) << goodput.mean()
              << " seg/s  ack_loss=" << std::setw(7) << ack_loss.mean() * 100
              << "%  recovery=" << recovery.mean() << " s\n";
  }
  return 0;
}
