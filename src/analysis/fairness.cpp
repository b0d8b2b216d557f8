#include "analysis/fairness.h"

#include <algorithm>

namespace hsr::analysis {

double jain_index(const std::vector<double>& values) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (values.empty() || sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

FairnessReport fairness_report(const std::vector<trace::FlowCapture>& captures,
                               Duration duration) {
  FairnessReport report;
  report.flows.reserve(captures.size());

  Duration norm = duration;
  if (norm.ns() <= 0) {
    for (const auto& c : captures) norm = std::max(norm, c.span());
  }
  const double seconds = norm.to_seconds();

  for (const auto& c : captures) {
    FlowFairness f;
    f.flow = c.flow;
    f.goodput_pps =
        seconds > 0.0
            ? static_cast<double>(c.unique_segments_delivered()) / seconds
            : 0.0;
    f.data_sent = c.data.sent_count();
    for (const auto& tx : c.data.transmissions()) {
      if (tx.packet.retx_count > 0) ++f.retransmissions;
    }
    f.retransmission_rate =
        f.data_sent > 0 ? static_cast<double>(f.retransmissions) /
                              static_cast<double>(f.data_sent)
                        : 0.0;
    report.aggregate_goodput_pps += f.goodput_pps;
    report.aggregate_data_sent += f.data_sent;
    report.aggregate_retransmissions += f.retransmissions;
    report.flows.push_back(f);
  }

  std::vector<double> goodputs;
  goodputs.reserve(report.flows.size());
  for (auto& f : report.flows) {
    f.goodput_share = report.aggregate_goodput_pps > 0.0
                          ? f.goodput_pps / report.aggregate_goodput_pps
                          : 0.0;
    goodputs.push_back(f.goodput_pps);
  }
  report.jain = jain_index(goodputs);
  report.aggregate_retransmission_rate =
      report.aggregate_data_sent > 0
          ? static_cast<double>(report.aggregate_retransmissions) /
                static_cast<double>(report.aggregate_data_sent)
          : 0.0;
  return report;
}

std::vector<WindowShare> delivered_shares(const std::vector<trace::FlowCapture>& captures,
                                          TimePoint begin, TimePoint end) {
  std::vector<WindowShare> shares;
  shares.reserve(captures.size());
  std::uint64_t total = 0;
  for (const auto& c : captures) {
    WindowShare s;
    s.flow = c.flow;
    for (const auto& tx : c.data.transmissions()) {
      if (tx.arrived.has_value() && *tx.arrived >= begin && *tx.arrived < end) {
        ++s.delivered;
      }
    }
    total += s.delivered;
    shares.push_back(s);
  }
  for (auto& s : shares) {
    s.share = total > 0 ? static_cast<double>(s.delivered) /
                              static_cast<double>(total)
                        : 0.0;
  }
  return shares;
}

}  // namespace hsr::analysis
