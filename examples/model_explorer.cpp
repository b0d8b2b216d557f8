// Interactive model calculator: evaluate the enhanced throughput model
// (Eq. 21) and the Padhye baseline for a chosen operating point, print the
// full derivation breakdown, and sweep the two HSR parameters (P_a, q).
//
//   $ ./model_explorer [p_d] [P_a] [q] [rtt_s] [T_s] [b] [W_m]
//   $ ./model_explorer 0.0075 0.01 0.3 0.1 0.5 2 256
#include <iomanip>
#include <iostream>
#include <limits>

#include "args.h"
#include "model/enhanced.h"

int main(int argc, char** argv) {
  using namespace hsr::model;

  // Any finite number is accepted: the model checks its own domain.
  constexpr double kMax = std::numeric_limits<double>::max();
  const auto arg = [&](int index, const char* name, double fallback) {
    return hsr::examples::numeric_arg(argc, argv, index, name, fallback, -kMax, kMax);
  };
  EnhancedInputs in;
  in.p_d = arg(1, "p_d", 0.0075);
  in.P_a = arg(2, "P_a", 0.01);
  in.q = arg(3, "q", 0.3);
  in.path.rtt_s = arg(4, "rtt_s", 0.1);
  in.path.t0_s = arg(5, "T_s", 0.5);
  in.path.b = arg(6, "b", 2.0);
  in.path.w_m = arg(7, "W_m", 256.0);

  std::cout << std::fixed << std::setprecision(4);
  std::cout << "inputs: p_d=" << in.p_d << " P_a=" << in.P_a << " q=" << in.q
            << " RTT=" << in.path.rtt_s << "s T=" << in.path.t0_s << "s b="
            << in.path.b << " W_m=" << in.path.w_m << "\n\n";

  const EnhancedBreakdown bd = enhanced_model(in);
  std::cout << "--- derivation (paper §IV) ---\n"
            << "X_P   (Eq. 1,  first-loss round)        = " << bd.x_p << "\n"
            << "E[X]  (Eq. 2,  rounds per CA phase)     = " << bd.e_x << "\n"
            << "E[W]  (Eq. 4,  window at CA end)        = " << bd.e_w << "\n"
            << "E[Y]  (Eq. 6,  segments per CA phase)   = " << bd.e_y << "\n"
            << "Q_P   (Eq. 9)                           = " << bd.q_p << "\n"
            << "Q     (Eq. 10, P(indication=timeout))   = " << bd.q_timeout << "\n"
            << "p     (consecutive-timeout probability) = " << bd.p_consec << "\n"
            << "E[R]  (Eq. 11, timeouts per sequence)   = " << bd.e_r << "\n"
            << "E[Y^TO] (Eq. 12)                        = " << bd.e_y_to << "\n"
            << "E[A^TO] (Eq. 13, sequence duration)     = " << bd.e_a_to_s << " s\n"
            << "window-limited branch:                    "
            << (bd.window_limited ? "yes (Eq. 16-20)" : "no") << "\n"
            << "THROUGHPUT (Eq. 21)                     = " << bd.throughput_pps
            << " segments/s\n\n";

  PadhyeInputs pin;
  pin.p = in.p_d;
  pin.path = in.path;
  const double padhye = padhye_throughput_pps(pin);
  std::cout << "Padhye baseline at the same p_d:          " << padhye
            << " segments/s\n"
            << "HSR penalty captured by the enhancement:  "
            << (1.0 - bd.throughput_pps / padhye) * 100 << " %\n\n";

  std::cout << "--- sensitivity: throughput vs P_a (rows) and q (cols) ---\n    q:";
  for (double q : {0.0, 0.1, 0.25, 0.4, 0.6}) std::cout << std::setw(10) << q;
  std::cout << "\n";
  for (double pa : {0.0, 0.005, 0.01, 0.05, 0.1}) {
    std::cout << "P_a=" << std::setw(5) << pa << ":";
    for (double q : {0.0, 0.1, 0.25, 0.4, 0.6}) {
      EnhancedInputs x = in;
      x.P_a = pa;
      x.q = q;
      std::cout << std::setw(10) << std::setprecision(1)
                << enhanced_throughput_pps(x) << std::setprecision(4);
    }
    std::cout << "\n";
  }
  std::cout << "\n(ACK-latency optimization lowers P_a — move up the rows;\n"
               " reliable retransmission like MPTCP lowers q — move left.)\n";
  return 0;
}
