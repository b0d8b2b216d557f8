// Reference §III flow analysis: the std::map-based implementation that
// src/analysis/flow_analysis.cpp replaced, unchanged apart from its
// namespace and the inlined std::set unique-segment count. See
// flow_analysis_reference.h.
#include "flow_analysis_reference.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "util/logging.h"

namespace hsr::analysis::reference {

namespace {

struct AckArrival {
  TimePoint when;
  SeqNo ack_next;
};

// ACKs that actually reached the sender, in arrival order.
std::vector<AckArrival> collect_ack_arrivals(const trace::FlowCapture& capture) {
  std::vector<AckArrival> arrivals;
  for (const auto& tx : capture.acks.transmissions()) {
    if (tx.arrived) arrivals.push_back({*tx.arrived, tx.packet.ack_next});
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const AckArrival& a, const AckArrival& b) { return a.when < b.when; });
  return arrivals;
}

// Index of the first arrival with when > t.
std::size_t first_arrival_after(const std::vector<AckArrival>& arrivals, TimePoint t) {
  return static_cast<std::size_t>(
      std::upper_bound(arrivals.begin(), arrivals.end(), t,
                       [](TimePoint value, const AckArrival& a) { return value < a.when; }) -
      arrivals.begin());
}

// True if some ACK arrived in (t - window, t].
bool ack_arrived_just_before(const std::vector<AckArrival>& arrivals, TimePoint t,
                             Duration window) {
  const std::size_t after = first_arrival_after(arrivals, t);
  if (after == 0) return false;
  return arrivals[after - 1].when > t - window;
}

// Classification of every data transmission.
enum class TxClass { kFirstSend, kRtoRetx, kFastRetx, kAckDrivenResend };

std::vector<TxClass> classify_transmissions(const trace::FlowCapture& capture,
                                            const std::vector<AckArrival>& arrivals,
                                            const AnalysisConfig& cfg) {
  const auto& txs = capture.data.transmissions();
  std::vector<TxClass> classes(txs.size(), TxClass::kFirstSend);
  std::map<SeqNo, std::size_t> last_send_of;

  for (std::size_t i = 0; i < txs.size(); ++i) {
    const SeqNo s = txs[i].packet.seq;
    const TimePoint t = txs[i].sent;
    const auto prev = last_send_of.find(s);
    if (prev != last_send_of.end()) {
      if (!ack_arrived_just_before(arrivals, t, cfg.ack_trigger_window)) {
        classes[i] = TxClass::kRtoRetx;
      } else {
        // ACK-driven: fast retransmit iff enough duplicate ACKs for `s`
        // arrived since the previous send of `s`.
        const TimePoint prev_t = txs[prev->second].sent;
        unsigned dupacks = 0;
        for (std::size_t k = first_arrival_after(arrivals, prev_t);
             k < arrivals.size() && arrivals[k].when <= t; ++k) {
          if (arrivals[k].ack_next == s) ++dupacks;
        }
        classes[i] = dupacks >= cfg.dupack_threshold ? TxClass::kFastRetx
                                                     : TxClass::kAckDrivenResend;
      }
    }
    last_send_of[s] = i;
  }
  return classes;
}

}  // namespace

std::vector<std::size_t> find_rto_retransmissions(const trace::FlowCapture& capture,
                                                  AnalysisConfig config) {
  const auto arrivals = collect_ack_arrivals(capture);
  const auto classes = classify_transmissions(capture, arrivals, config);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (classes[i] == TxClass::kRtoRetx) out.push_back(i);
  }
  return out;
}

unsigned count_fast_retransmissions(const trace::FlowCapture& capture,
                                    AnalysisConfig config) {
  const auto arrivals = collect_ack_arrivals(capture);
  const auto classes = classify_transmissions(capture, arrivals, config);
  unsigned n = 0;
  for (const TxClass c : classes) {
    if (c == TxClass::kFastRetx) ++n;
  }
  return n;
}

double estimate_ack_burst_loss(const trace::FlowCapture& capture, Duration rtt) {
  if (rtt <= Duration::zero()) return 0.0;
  const auto& txs = capture.acks.transmissions();
  if (txs.empty()) return 0.0;

  // Bucket ACK transmissions into RTT-sized rounds anchored at the first
  // ACK's send time; a round contributes when it contains at least one ACK.
  const TimePoint origin = txs.front().sent;
  std::map<std::int64_t, std::pair<unsigned, unsigned>> rounds;  // round -> (sent, lost)
  for (const auto& tx : txs) {
    const std::int64_t round = (tx.sent - origin).ns() / rtt.ns();
    auto& [sent, lost] = rounds[round];
    ++sent;
    if (tx.lost()) ++lost;
  }
  unsigned with_acks = 0;
  unsigned all_lost = 0;
  for (const auto& [round, counts] : rounds) {
    (void)round;
    ++with_acks;
    if (counts.second == counts.first) ++all_lost;
  }
  return with_acks == 0 ? 0.0
                        : static_cast<double>(all_lost) / static_cast<double>(with_acks);
}

std::uint64_t unique_segments_delivered(const trace::FlowCapture& capture) {
  std::set<SeqNo> seen;
  for (const auto& tx : capture.data.transmissions()) {
    if (tx.arrived) seen.insert(tx.packet.seq);
  }
  return seen.size();
}

FlowAnalysis analyze_flow(const trace::FlowCapture& capture, AnalysisConfig config) {
  FlowAnalysis out;
  const auto& data_txs = capture.data.transmissions();
  const auto arrivals = collect_ack_arrivals(capture);
  const auto classes = classify_transmissions(capture, arrivals, config);

  out.data_loss_rate = capture.data.loss_rate();
  out.ack_loss_rate = capture.acks.loss_rate();
  {
    // First-transmission loss rate: the first send of each distinct segment.
    std::map<SeqNo, bool> seen_first;
    std::uint64_t firsts = 0, firsts_lost = 0;
    for (const auto& tx : data_txs) {
      auto [it2, inserted] = seen_first.emplace(tx.packet.seq, true);
      (void)it2;
      if (!inserted) continue;
      ++firsts;
      if (tx.lost()) ++firsts_lost;
    }
    out.first_tx_loss_rate =
        firsts == 0 ? 0.0 : static_cast<double>(firsts_lost) / static_cast<double>(firsts);
    out.first_transmissions = firsts;
  }
  out.unique_segments = unique_segments_delivered(capture);
  out.span = capture.span();
  out.mean_rtt = capture.estimated_rtt();
  out.goodput_pps = out.span > Duration::zero()
                        ? static_cast<double>(out.unique_segments) / out.span.to_seconds()
                        : 0.0;
  out.mean_window_segments = out.goodput_pps * out.mean_rtt.to_seconds();
  out.ack_burst_loss_probability = estimate_ack_burst_loss(capture, out.mean_rtt);

  for (const TxClass c : classes) {
    if (c == TxClass::kFastRetx) ++out.fast_retransmits;
  }

  // --- Timeout sequences -----------------------------------------------------
  // Per segment: all transmission indices, in time order (captures are
  // chronological per direction).
  std::map<SeqNo, std::vector<std::size_t>> sends_of;
  for (std::size_t i = 0; i < data_txs.size(); ++i) {
    sends_of[data_txs[i].packet.seq].push_back(i);
  }

  std::vector<bool> consumed(data_txs.size(), false);
  for (std::size_t i = 0; i < data_txs.size(); ++i) {
    if (classes[i] != TxClass::kRtoRetx || consumed[i]) continue;

    const SeqNo s = data_txs[i].packet.seq;
    TimeoutSequence seq_info;
    seq_info.seq = s;
    seq_info.first_retx = data_txs[i].sent;

    const auto& sends = sends_of[s];
    // Previous transmission of s (the "original" whose timer expired).
    const auto it = std::find(sends.begin(), sends.end(), i);
    HSR_CHECK(it != sends.begin() && it != sends.end());
    const std::size_t original_idx = *(it - 1);
    seq_info.ca_end = data_txs[original_idx].sent;

    // Spurious iff any copy of s put on the wire before the first RTO
    // retransmission actually reached the receiver.
    for (auto jt = sends.begin(); jt != it; ++jt) {
      if (data_txs[*jt].arrived) {
        seq_info.spurious = true;
        break;
      }
    }

    // Recovery: first ACK arriving after the first retransmission that
    // acknowledges past s.
    TimePoint recovered = TimePoint::max();
    for (std::size_t k = first_arrival_after(arrivals, seq_info.first_retx);
         k < arrivals.size(); ++k) {
      if (arrivals[k].ack_next > s) {
        recovered = arrivals[k].when;
        break;
      }
    }
    seq_info.recovered_observed = recovered != TimePoint::max();
    seq_info.recovered = seq_info.recovered_observed
                             ? recovered
                             : (data_txs.back().sent);  // trace truncated mid-recovery

    // All RTO retransmissions of s within [first_retx, recovered] belong to
    // this sequence; count their fates.
    TimePoint second_retx = TimePoint::max();
    for (auto jt = it; jt != sends.end(); ++jt) {
      const std::size_t idx = *jt;
      if (data_txs[idx].sent > seq_info.recovered) break;
      if (classes[idx] != TxClass::kRtoRetx) continue;
      consumed[idx] = true;
      ++seq_info.num_timeouts;
      ++seq_info.retx_sent;
      if (seq_info.num_timeouts == 2) second_retx = data_txs[idx].sent;
      if (data_txs[idx].lost()) ++seq_info.retx_lost;
    }
    if (second_retx != TimePoint::max()) {
      seq_info.backoff_gap = second_retx - seq_info.first_retx;
    }
    out.timeout_sequences.push_back(std::move(seq_info));
  }

  std::sort(out.timeout_sequences.begin(), out.timeout_sequences.end(),
            [](const TimeoutSequence& a, const TimeoutSequence& b) {
              return a.first_retx < b.first_retx;
            });

  // --- Aggregates ------------------------------------------------------------
  unsigned total_retx = 0;
  unsigned total_retx_lost = 0;
  unsigned spurious = 0;
  std::int64_t recovery_ns = 0;
  std::int64_t all_recovery_ns = 0;  // completed + truncated sequences
  std::int64_t first_rto_ns = 0;
  std::int64_t backoff_gap_ns = 0;
  unsigned with_backoff_gap = 0;
  unsigned completed = 0;
  for (const auto& ts : out.timeout_sequences) {
    total_retx += ts.retx_sent;
    total_retx_lost += ts.retx_lost;
    if (ts.spurious) ++spurious;
    first_rto_ns += (ts.first_retx - ts.ca_end).ns();
    if (ts.backoff_gap > Duration::zero()) {
      backoff_gap_ns += ts.backoff_gap.ns();
      ++with_backoff_gap;
    }
    all_recovery_ns += ts.duration().ns();
    if (ts.recovered_observed) {
      recovery_ns += ts.duration().ns();
      ++completed;
    }
  }
  const auto n_seq = out.timeout_sequences.size();
  out.recovery_retx_loss_rate =
      total_retx == 0 ? 0.0
                      : static_cast<double>(total_retx_lost) / static_cast<double>(total_retx);
  out.spurious_fraction =
      n_seq == 0 ? 0.0 : static_cast<double>(spurious) / static_cast<double>(n_seq);
  out.mean_recovery_duration =
      completed == 0 ? Duration::zero() : Duration::nanos(recovery_ns / completed);
  if (with_backoff_gap > 0) {
    // gap between the 1st and 2nd retransmission is 2T under backoff.
    out.mean_first_rto =
        Duration::nanos(backoff_gap_ns / (2 * static_cast<std::int64_t>(with_backoff_gap)));
  } else {
    out.mean_first_rto =
        n_seq == 0 ? Duration::zero()
                   : Duration::nanos(first_rto_ns / static_cast<std::int64_t>(n_seq));
  }
  out.total_recovery_time = Duration::nanos(all_recovery_ns);
  out.recovery_time_fraction =
      out.span > Duration::zero()
          ? std::min(1.0, out.total_recovery_time.to_seconds() / out.span.to_seconds())
          : 0.0;
  out.loss_indications = static_cast<unsigned>(n_seq) + out.fast_retransmits;
  out.timeout_probability =
      out.loss_indications == 0
          ? 0.0
          : static_cast<double>(n_seq) / static_cast<double>(out.loss_indications);

  if (out.first_transmissions > 0) {
    const double n_first = static_cast<double>(out.first_transmissions);
    unsigned non_spurious = 0;
    for (const auto& ts : out.timeout_sequences) {
      if (!ts.spurious) ++non_spurious;
    }
    out.loss_event_rate_all = static_cast<double>(out.loss_indications) / n_first;
    out.loss_event_rate_data =
        static_cast<double>(out.fast_retransmits + non_spurious) / n_first;
  }

  // Episode-calibrated P̂_a: invert 1-(1-P_a)^X_P = spurious share of loss
  // indications, with X_P from the measured data-loss rate (model Eq. 1).
  if (out.loss_indications > 0 && spurious > 0 && out.loss_event_rate_data > 0.0) {
    const double frac = static_cast<double>(spurious) /
                        static_cast<double>(out.loss_indications);
    const double b_est = 2.0;  // inversion is insensitive to b; see Eq. 1
    const double k = (2.0 + b_est) / 6.0;
    const double x_p =
        k + std::sqrt(2.0 * b_est * (1.0 - out.loss_event_rate_data) /
                          (3.0 * out.loss_event_rate_data) +
                      k * k);
    out.ack_burst_loss_episode =
        1.0 - std::pow(1.0 - std::min(frac, 0.999), 1.0 / x_p);
  }
  return out;
}

}  // namespace hsr::analysis::reference
