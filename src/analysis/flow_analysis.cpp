#include "analysis/flow_analysis.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace hsr::analysis {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

struct AckArrival {
  TimePoint when;
  SeqNo ack_next;
};

// ACKs that actually reached the sender, in arrival order. A capture logs
// ACKs in send order, so the arrivals are already sorted unless the uplink
// reordered them, and only then is a sort needed. Arrivals with equal times
// may end up in any order: every query below asks either for the arrivals
// inside a time window (a set, whatever its order) or for the earliest
// arrival time that satisfies a predicate, and neither depends on how ties
// are ordered.
std::vector<AckArrival> collect_ack_arrivals(const trace::FlowCapture& capture) {
  const auto& txs = capture.acks.transmissions();
  std::vector<AckArrival> arrivals(txs.size());
  std::size_t n = 0;
  // HSR_HOT_PATH_BEGIN
  for (const auto& tx : txs) {
    if (tx.arrived) arrivals[n++] = {*tx.arrived, tx.packet.ack_next};
  }
  // HSR_HOT_PATH_END
  arrivals.resize(n);
  const auto by_time = [](const AckArrival& a, const AckArrival& b) {
    return a.when < b.when;
  };
  if (!std::is_sorted(arrivals.begin(), arrivals.end(), by_time)) {
    std::sort(arrivals.begin(), arrivals.end(), by_time);
  }
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
enum class TxClass : std::uint8_t { kFirstSend, kRtoRetx, kFastRetx, kAckDrivenResend };

// Classifies the re-send of `seq` at `sent` whose previous send of the same
// seq went out at `prev_sent`.
TxClass classify_resend(const std::vector<AckArrival>& arrivals, SeqNo seq,
                        TimePoint prev_sent, TimePoint sent, const AnalysisConfig& cfg) {
  if (!ack_arrived_just_before(arrivals, sent, cfg.ack_trigger_window)) {
    return TxClass::kRtoRetx;
  }
  // ACK-driven: fast retransmit iff enough duplicate ACKs for `seq` arrived
  // since the previous send of `seq`. Counting stops at the threshold,
  // past which the count no longer matters.
  unsigned dupacks = 0;
  for (std::size_t k = first_arrival_after(arrivals, prev_sent);
       k < arrivals.size() && arrivals[k].when <= sent && dupacks < cfg.dupack_threshold;
       ++k) {
    if (arrivals[k].ack_next == seq) ++dupacks;
  }
  return dupacks >= cfg.dupack_threshold ? TxClass::kFastRetx : TxClass::kAckDrivenResend;
}

// What the classification pass learns about one data transmission. The
// prev/next links chain the sends of one seq in index order.
struct TxLinks {
  std::size_t prev = kNone;  // previous send of the same seq
  std::size_t next = kNone;  // next send of the same seq
  TxClass cls = TxClass::kFirstSend;
  bool delivered_before = false;  // some earlier send of the seq arrived
  bool consumed = false;          // counted into a timeout sequence
};

struct Classification {
  std::vector<AckArrival> arrivals;
  std::vector<TxLinks> txs;  // parallel to capture.data.transmissions()
  std::uint64_t first_sends = 0;
  std::uint64_t first_sends_lost = 0;
  std::uint64_t unique_delivered = 0;  // distinct seqs with an arrived send
  std::size_t rto_retransmits = 0;
  unsigned fast_retransmits = 0;
};

// The one pass over the data transmissions, in index order. A send whose
// seq was sent before (at a lower index) is a re-send and gets classified;
// a capture whose send times are out of order is still walked in index
// order, exactly as it was recorded.
Classification classify(const trace::FlowCapture& capture, const AnalysisConfig& cfg) {
  struct SlotState {
    std::size_t last = kNone;  // latest send of the seq so far
    bool delivered = false;    // some send of the seq so far arrived
  };
  Classification out;
  out.arrivals = collect_ack_arrivals(capture);
  const auto& data = capture.data.transmissions();
  const trace::SeqSlots slots(data);
  std::vector<SlotState> state(slots.size());
  out.txs.resize(data.size());
  // HSR_HOT_PATH_BEGIN
  for (std::size_t i = 0; i < data.size(); ++i) {
    const trace::Transmission& tx = data[i];
    SlotState& slot = state[slots.slot_of(tx.packet.seq)];
    TxLinks& links = out.txs[i];
    if (slot.last == kNone) {
      ++out.first_sends;
      if (tx.lost()) ++out.first_sends_lost;
    } else {
      links.prev = slot.last;
      links.delivered_before = slot.delivered;
      out.txs[slot.last].next = i;
      links.cls = classify_resend(out.arrivals, tx.packet.seq, data[slot.last].sent,
                                  tx.sent, cfg);
      if (links.cls == TxClass::kRtoRetx) ++out.rto_retransmits;
      if (links.cls == TxClass::kFastRetx) ++out.fast_retransmits;
    }
    slot.last = i;
    if (tx.arrived && !slot.delivered) {
      slot.delivered = true;
      ++out.unique_delivered;
    }
  }
  // HSR_HOT_PATH_END
  return out;
}

// Counts RTT rounds over `n` ACKs given as (round, lost) pairs by `at`, in
// an order where each round is one run of equal round numbers: the rounds
// with at least one ACK, and those whose every ACK was lost. Returns false,
// leaving the counts unusable, at the first round number below the one
// before it.
template <typename RoundAt>
bool count_rounds(std::size_t n, RoundAt at, unsigned& with_acks, unsigned& all_lost) {
  with_acks = 0;
  all_lost = 0;
  std::int64_t round = 0;
  bool every_lost = true;
  // HSR_HOT_PATH_BEGIN
  for (std::size_t i = 0; i < n; ++i) {
    const auto [r, lost] = at(i);
    if (i > 0 && r < round) return false;
    if (i > 0 && r > round) {
      ++with_acks;
      if (every_lost) ++all_lost;
      every_lost = true;
    }
    round = r;
    every_lost = every_lost && lost;
  }
  // HSR_HOT_PATH_END
  if (n > 0) {
    ++with_acks;
    if (every_lost) ++all_lost;
  }
  return true;
}

}  // namespace

std::vector<std::size_t> find_rto_retransmissions(const trace::FlowCapture& capture,
                                                  AnalysisConfig config) {
  const Classification c = classify(capture, config);
  std::vector<std::size_t> out;
  out.reserve(c.rto_retransmits);
  for (std::size_t i = 0; i < c.txs.size(); ++i) {
    if (c.txs[i].cls == TxClass::kRtoRetx) out.push_back(i);
  }
  return out;
}

unsigned count_fast_retransmissions(const trace::FlowCapture& capture,
                                    AnalysisConfig config) {
  return classify(capture, config).fast_retransmits;
}

double estimate_ack_burst_loss(const trace::FlowCapture& capture, Duration rtt) {
  if (rtt <= Duration::zero()) return 0.0;
  const auto& txs = capture.acks.transmissions();
  if (txs.empty()) return 0.0;

  // Bucket ACK transmissions into RTT-sized rounds anchored at the first
  // ACK's send time; a round contributes when it contains at least one ACK.
  const TimePoint origin = txs.front().sent;
  const auto round_at = [&](std::size_t i) {
    return std::pair<std::int64_t, bool>((txs[i].sent - origin).ns() / rtt.ns(),
                                         txs[i].lost());
  };
  unsigned with_acks = 0;
  unsigned all_lost = 0;
  // ACKs go out in time order, so their rounds come as runs. Only a capture
  // with send times out of order (a decoder accepts any order) needs the
  // rounds sorted first.
  if (!count_rounds(txs.size(), round_at, with_acks, all_lost)) {
    std::vector<std::pair<std::int64_t, bool>> rounds(txs.size());
    for (std::size_t i = 0; i < txs.size(); ++i) rounds[i] = round_at(i);
    std::sort(rounds.begin(), rounds.end());
    count_rounds(
        rounds.size(), [&](std::size_t i) { return rounds[i]; }, with_acks, all_lost);
  }
  return with_acks == 0 ? 0.0
                        : static_cast<double>(all_lost) / static_cast<double>(with_acks);
}

LossBreakdown loss_breakdown(const trace::FlowCapture& capture) {
  LossBreakdown out;
  auto tally = [](const trace::DirectionCapture& dir, std::uint64_t& sent,
                  std::uint64_t& lost,
                  std::array<std::uint64_t, net::kDropCategoryCount>& by_category,
                  std::uint64_t& unattributed, std::uint64_t& scripted) {
    for (const auto& tx : dir.transmissions()) {
      ++sent;
      if (!tx.lost()) continue;
      ++lost;
      if (!tx.drop_cause) {
        ++unattributed;
        continue;
      }
      ++by_category[static_cast<std::size_t>(tx.drop_cause->category)];
      if (tx.drop_cause->is_scripted()) ++scripted;
    }
  };
  tally(capture.data, out.data_sent, out.data_lost, out.data_by_category,
        out.data_unattributed, out.scripted_drops);
  tally(capture.acks, out.ack_sent, out.ack_lost, out.ack_by_category,
        out.ack_unattributed, out.scripted_drops);
  return out;
}

FlowAnalysis analyze_flow(const trace::FlowCapture& capture, AnalysisConfig config) {
  FlowAnalysis out;
  const auto& data_txs = capture.data.transmissions();
  Classification c = classify(capture, config);
  const auto& arrivals = c.arrivals;

  out.data_loss_rate = capture.data.loss_rate();
  out.ack_loss_rate = capture.acks.loss_rate();
  // First-transmission loss rate: the first send of each distinct segment.
  out.first_tx_loss_rate =
      c.first_sends == 0
          ? 0.0
          : static_cast<double>(c.first_sends_lost) / static_cast<double>(c.first_sends);
  out.first_transmissions = c.first_sends;
  out.unique_segments = c.unique_delivered;
  out.span = capture.span();
  out.mean_rtt = capture.estimated_rtt();
  out.goodput_pps = out.span > Duration::zero()
                        ? static_cast<double>(out.unique_segments) / out.span.to_seconds()
                        : 0.0;
  out.mean_window_segments = out.goodput_pps * out.mean_rtt.to_seconds();
  out.ack_burst_loss_probability = estimate_ack_burst_loss(capture, out.mean_rtt);
  out.fast_retransmits = c.fast_retransmits;

  // --- Timeout sequences -----------------------------------------------------
  // Each not-yet-counted RTO retransmission, in index order, opens a
  // sequence; the walk follows the send links of its seq, which run in
  // index order. Send times decide recovery and membership, and a capture
  // may hold them out of index order (the decoder accepts any order).
  out.timeout_sequences.resize(c.rto_retransmits);
  std::size_t n_open = 0;
  // HSR_HOT_PATH_BEGIN
  for (std::size_t i = 0; i < data_txs.size(); ++i) {
    if (c.txs[i].cls != TxClass::kRtoRetx || c.txs[i].consumed) continue;

    const SeqNo s = data_txs[i].packet.seq;
    TimeoutSequence& seq_info = out.timeout_sequences[n_open++];
    seq_info.seq = s;
    seq_info.first_retx = data_txs[i].sent;

    // Previous transmission of s (the "original" whose timer expired).
    const std::size_t original_idx = c.txs[i].prev;
    HSR_CHECK(original_idx != kNone);
    seq_info.ca_end = data_txs[original_idx].sent;

    // Spurious iff any copy of s put on the wire before the first RTO
    // retransmission actually reached the receiver.
    seq_info.spurious = c.txs[i].delivered_before;

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
    for (std::size_t idx = i; idx != kNone; idx = c.txs[idx].next) {
      if (data_txs[idx].sent > seq_info.recovered) break;
      if (c.txs[idx].cls != TxClass::kRtoRetx) continue;
      c.txs[idx].consumed = true;
      ++seq_info.num_timeouts;
      ++seq_info.retx_sent;
      if (seq_info.num_timeouts == 2) second_retx = data_txs[idx].sent;
      if (data_txs[idx].lost()) ++seq_info.retx_lost;
    }
    if (second_retx != TimePoint::max()) {
      seq_info.backoff_gap = second_retx - seq_info.first_retx;
    }
  }
  // HSR_HOT_PATH_END
  out.timeout_sequences.resize(n_open);

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

}  // namespace hsr::analysis
