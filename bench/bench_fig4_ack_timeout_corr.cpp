// Fig. 4: per-flow scatter of ACK loss rate vs timeout probability, with the
// positive correlation (and the bounding band) the paper highlights.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <iterator>

#include "bench/common.h"
#include "util/csv.h"
#include "util/stats.h"

int main() {
  using namespace hsr;
  bench::header("Fig. 4: ACK loss rate vs timeout probability");

  const auto points = bench::corpus().corpus.ack_loss_vs_timeout(true);
  auto csv = bench::open_csv("fig4_ack_timeout.csv");
  util::CsvWriter w(csv);
  w.row("ack_loss_rate", "timeout_probability");
  std::vector<double> xs, ys;
  for (const auto& [x, y] : points) {
    w.row(x, y);
    xs.push_back(x);
    ys.push_back(y);
  }

  const double corr = util::pearson_correlation(xs, ys);
  const auto [a, b] = util::linear_fit(xs, ys);
  std::cout << "flows plotted: " << points.size() << "\n";
  std::cout << "fit: Q = " << a << " + " << b << " * ack_loss\n";
  // Terminal scatter preview, binned by ACK loss. Each bucket ends where the
  // next begins and the last runs to 100 %, so every flow lands in one.
  std::cout << "  ack_loss bucket   mean Q    n\n";
  constexpr double kEdges[] = {0.0, 0.0025, 0.005, 0.01, 0.02, 1.0};
  constexpr std::size_t kBuckets = std::size(kEdges) - 1;
  std::size_t binned = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const bool last = b + 1 == kBuckets;
    util::RunningStats q;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (xs[i] >= kEdges[b] && (xs[i] < kEdges[b + 1] || last)) q.add(ys[i]);
    }
    binned += q.count();
    if (!q.empty()) {
      std::cout << "  [" << std::setw(6) << kEdges[b] * 100 << "%, " << std::setw(6)
                << kEdges[b + 1] * 100 << (last ? "%]  " : "%)  ") << std::setw(7)
                << q.mean() << "  " << q.count() << "\n";
    }
  }
  std::cout << "\n";
  if (binned != points.size()) {
    std::cerr << "FAIL: the buckets hold " << binned << " of " << points.size() << " flows\n";
    return 1;
  }
  bench::compare_row("positive correlation present", 1.0, corr > 0.1 ? 1.0 : 0.0,
                     "(paper: visible but not strong trend)");
  std::cout << "pearson r = " << corr << " (expected weakly positive)\n";
  return corr > 0.0 ? 0 : 1;
}
