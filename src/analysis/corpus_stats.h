// Online corpus statistics.
//
// The in-memory aggregation path (analysis::Corpus) keeps every FlowAnalysis
// alive until the end of a campaign — at 10^5-10^6 flows that is exactly the
// memory wall the streaming pipeline removes. CorpusStats is the O(1)-space
// replacement: each finished flow is reduced to a FlowStatsSample (a handful
// of doubles plus integer loss counters) in the worker, the capture is
// spilled to disk and freed, and the sample is absorbed into count / sum /
// min / max / M2 accumulators per metric plus exact integer loss-breakdown
// totals.
//
// Determinism contract: Welford updates are not associative in floating
// point, so absorb() must be called in flow-index order — then every
// accumulator sees the identical add sequence the in-memory path produces
// and headline() is BITWISE equal to Corpus::headline(), for any thread
// count (tests pin this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/corpus.h"
#include "analysis/flow_analysis.h"
#include "util/fs.h"
#include "util/stats.h"
#include "util/status.h"

namespace hsr::analysis {

// Everything corpus aggregation needs from one flow, with the capture gone.
struct FlowStatsSample {
  bool high_speed = true;
  bool has_timeouts = false;
  double ack_loss_rate = 0.0;
  double data_loss_rate = 0.0;
  double first_tx_loss_rate = 0.0;
  double recovery_retx_loss_rate = 0.0;  // q̂ (meaningful when has_timeouts)
  double goodput_pps = 0.0;
  std::uint64_t bytes_captured = 0;

  // Per-timeout-sequence summary, in sequence order (order matters for the
  // bitwise-identical recovery-duration accumulator).
  struct SequenceSample {
    double duration_s = 0.0;
    bool spurious = false;
    bool recovered = false;
  };
  std::vector<SequenceSample> sequences;

  LossBreakdown breakdown;

  static FlowStatsSample from_flow(const FlowAnalysis& flow,
                                   const LossBreakdown& breakdown, bool high_speed,
                                   std::uint64_t bytes_captured);
};

class CorpusStats {
 public:
  // Folds one flow in. MUST be called in flow-index order for the
  // bitwise-identity contract with the in-memory path (see header comment).
  void absorb(const FlowStatsSample& sample);
  // Counts a quarantined flow (no metrics — the flow never completed).
  void absorb_quarantine();

  // The §III headline block, computed from the accumulators alone. Bitwise
  // equal to Corpus::headline() when absorb() ran in entry order.
  Corpus::Headline headline() const;

  std::uint64_t flows() const { return flows_highspeed_ + flows_stationary_; }
  std::uint64_t flows_highspeed() const { return flows_highspeed_; }
  std::uint64_t flows_stationary() const { return flows_stationary_; }
  std::uint64_t quarantined() const { return quarantined_; }
  std::uint64_t bytes_captured() const { return bytes_captured_; }

  const util::RunningStats& ack_loss(bool high_speed) const {
    return high_speed ? ack_loss_highspeed_ : ack_loss_stationary_;
  }
  const util::RunningStats& data_loss(bool high_speed) const {
    return high_speed ? data_loss_highspeed_ : data_loss_stationary_;
  }
  const util::RunningStats& goodput_pps(bool high_speed) const {
    return high_speed ? goodput_highspeed_ : goodput_stationary_;
  }

  // Deterministic text serialization ("hsrcorpusstats-v1"). Doubles are
  // written shortest-round-trip, so parse(to_text()) reproduces the
  // accumulators bitwise — the digest two corpus paths can be compared by.
  std::string to_text() const;
  [[nodiscard]] static util::StatusOr<CorpusStats> parse(const std::string& text);

 private:
  util::RunningStats recovery_highspeed_;     // s, per completed sequence
  util::RunningStats recovery_stationary_;    // s, per completed sequence
  util::RunningStats ack_loss_highspeed_;
  util::RunningStats ack_loss_stationary_;
  util::RunningStats data_loss_highspeed_;
  util::RunningStats data_loss_stationary_;
  util::RunningStats first_tx_loss_highspeed_;
  util::RunningStats recovery_loss_highspeed_;  // q̂, flows with timeouts
  util::RunningStats goodput_highspeed_;
  util::RunningStats goodput_stationary_;

  std::uint64_t flows_highspeed_ = 0;
  std::uint64_t flows_stationary_ = 0;
  std::uint64_t timeout_sequences_highspeed_ = 0;
  std::uint64_t spurious_sequences_highspeed_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t bytes_captured_ = 0;
  LossBreakdown loss_totals_;
};

// File wrappers around to_text()/parse(). Saving is atomic (write to
// `<path>.tmp`, fsync, then rename) through the util::Fs seam, matching
// trace_io::save_flow_capture; the seamless overload uses util::Fs::real().
[[nodiscard]] util::Status save_corpus_stats(util::Fs& fs, const std::string& path,
                                             const CorpusStats& stats);
[[nodiscard]] util::Status save_corpus_stats(const std::string& path,
                                             const CorpusStats& stats);
[[nodiscard]] util::StatusOr<CorpusStats> load_corpus_stats(const std::string& path);

}  // namespace hsr::analysis
