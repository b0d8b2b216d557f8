// Per-flow measurement methodology (paper §III).
//
// Works ONLY from the packet captures (trace::FlowCapture) — never from the
// TCP stack's internal state — mirroring how the authors analyzed wireshark
// traces. Reconstruction steps:
//   1. classify every data re-send as timer-driven (RTO) or ACK-driven
//      (fast retransmit / go-back-N slow start),
//   2. group RTO retransmissions into timeout sequences and find each
//      sequence's recovery point,
//   3. classify each timeout sequence as spurious (the original copy reached
//      the receiver; the timeout was caused by ACK loss) or data-loss,
//   4. measure lifetime loss rates, in-recovery retransmit loss (q̂), ACK
//      burst loss (P̂_a), the loss-indication mix (Q̂) and goodput.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "trace/capture.h"
#include "util/time.h"

namespace hsr::analysis {

using net::SeqNo;
using util::Duration;
using util::TimePoint;

struct AnalysisConfig {
  // A re-send not preceded by an ACK arrival within this window is
  // timer-driven (the simulator cascades ACK-driven sends at the arrival
  // instant; a real capture needs a small tolerance).
  Duration ack_trigger_window = Duration::millis(2);
  // Duplicate-ACK threshold for fast-retransmit classification.
  unsigned dupack_threshold = 3;
};

// One timeout sequence: the recovery episode following an RTO (paper Fig. 2),
// possibly containing several consecutive timeouts with backoff.
struct TimeoutSequence {
  SeqNo seq = 0;                 // the timed-out segment
  TimePoint ca_end;              // last pre-timeout transmission of `seq` (CA phase end)
  TimePoint first_retx;          // first RTO retransmission
  TimePoint recovered;           // first ACK > seq arriving back at the sender
  bool recovered_observed = false;  // false if the trace ends mid-recovery
  unsigned num_timeouts = 0;     // RTO retransmissions of `seq` in the sequence
  unsigned retx_sent = 0;        // == num_timeouts (one packet per timeout)
  unsigned retx_lost = 0;        // how many of those retransmissions were lost
  bool spurious = false;         // the original copy of `seq` was delivered
  // Gap between the 1st and 2nd RTO retransmission (zero when the sequence
  // has a single timeout). Under exponential backoff this gap equals 2T,
  // giving an unbiased estimate of the base timer T.
  Duration backoff_gap;

  // Recovery-phase duration: end of the CA phase to the start of slow start.
  Duration duration() const { return recovered - ca_end; }
  double retx_loss_rate() const {
    return retx_sent == 0 ? 0.0
                          : static_cast<double>(retx_lost) / static_cast<double>(retx_sent);
  }
};

struct FlowAnalysis {
  // --- Loss rates -----------------------------------------------------------
  double data_loss_rate = 0.0;       // lifetime, all data transmissions
  // p̂_d: loss rate of FIRST transmissions only. The paper separates q (the
  // retransmit loss inside recoveries) from p_d, so retransmissions must not
  // be double-counted into the data-loss parameter fed to the models.
  double first_tx_loss_rate = 0.0;
  double ack_loss_rate = 0.0;        // lifetime, all ACK transmissions
  double recovery_retx_loss_rate = 0.0;  // q̂: retransmit loss inside recoveries

  // Loss-EVENT rates (PFTK's empirical convention: a burst counts once).
  // `all` counts every loss indication (fast retransmits + every timeout
  // sequence — what a Padhye-model user measures, since that model assumes
  // all timeouts stem from data loss); `data` excludes spurious timeout
  // sequences (those belong to P_a in the enhanced model).
  double loss_event_rate_all = 0.0;
  double loss_event_rate_data = 0.0;
  std::uint64_t first_transmissions = 0;

  // --- Timeout structure ----------------------------------------------------
  std::vector<TimeoutSequence> timeout_sequences;
  unsigned fast_retransmits = 0;
  unsigned loss_indications = 0;     // timeout sequences + fast retransmits
  double timeout_probability = 0.0;  // Q̂ = sequences / indications
  double spurious_fraction = 0.0;    // spurious sequences / sequences
  Duration mean_recovery_duration;   // over completed sequences
  // Total time spent inside timeout sequences (unrecovered tails included),
  // and its share of the flow's span. Flows dominated by one giant dead
  // zone (share >> 0) violate the steady-state assumption behind BOTH
  // throughput models and are excluded from Fig. 10-style evaluations.
  Duration total_recovery_time;
  double recovery_time_fraction = 0.0;
  // T̂: base retransmission timer. Estimated from backoff gaps (gap/2) when
  // any sequence has >= 2 timeouts; otherwise from first_retx - ca_end
  // (which overestimates T by up to one RTT of timer restarts).
  Duration mean_first_rto;

  // --- Round / window estimates ---------------------------------------------
  Duration mean_rtt;
  double mean_window_segments = 0.0;     // ŵ ≈ goodput × RTT
  double ack_burst_loss_probability = 0.0;  // P̂_a: rounds with every ACK lost
  // P̂_a calibrated from episodes: the P_a for which the model's CA-phase
  // termination mix (1-(1-P_a)^X_P spurious-timeout share of loss
  // indications) matches the observed mix. Robust to burst clustering,
  // which makes the per-round estimator overshoot.
  double ack_burst_loss_episode = 0.0;

  // --- Throughput ------------------------------------------------------------
  double goodput_pps = 0.0;          // unique segments delivered per second
  std::uint64_t unique_segments = 0;
  Duration span;

  bool has_timeouts() const { return !timeout_sequences.empty(); }
};

// Per-cause loss accounting over one captured flow, split by direction
// (data vs ACK). Works from Transmission::drop_cause alone, so it applies
// to archived captures with no live simulator state. `*_unattributed`
// counts transmissions that never arrived but carry no cause — packets
// still in flight at capture end, plus lost records from pre-cause-code
// archives whose drop column was '-'.
struct LossBreakdown {
  std::uint64_t data_sent = 0;
  std::uint64_t data_lost = 0;       // no arrival (attributed or not)
  std::uint64_t ack_sent = 0;
  std::uint64_t ack_lost = 0;
  std::array<std::uint64_t, net::kDropCategoryCount> data_by_category{};
  std::array<std::uint64_t, net::kDropCategoryCount> ack_by_category{};
  std::uint64_t data_unattributed = 0;
  std::uint64_t ack_unattributed = 0;
  std::uint64_t scripted_drops = 0;  // both directions, kScriptedFault

  std::uint64_t data_dropped_by(net::DropCategory c) const {
    return data_by_category[static_cast<std::size_t>(c)];
  }
};

// Tallies every transmission's fate by drop cause.
LossBreakdown loss_breakdown(const trace::FlowCapture& capture);

// Runs the full §III methodology over one captured flow.
FlowAnalysis analyze_flow(const trace::FlowCapture& capture, AnalysisConfig config = {});

// --- Lower-level pieces (exposed for tests and ablations) --------------------

// Indices into capture.data.transmissions() of re-sends classified as
// timer-driven (RTO) retransmissions.
std::vector<std::size_t> find_rto_retransmissions(const trace::FlowCapture& capture,
                                                  AnalysisConfig config = {});

// Count of ACK-driven re-sends with >= dupack_threshold duplicate ACKs seen
// (fast retransmissions).
unsigned count_fast_retransmissions(const trace::FlowCapture& capture,
                                    AnalysisConfig config = {});

// Fraction of RTT-sized rounds in which at least one ACK was sent and every
// ACK sent was lost (the direct P_a estimator).
double estimate_ack_burst_loss(const trace::FlowCapture& capture, Duration rtt);

}  // namespace hsr::analysis
