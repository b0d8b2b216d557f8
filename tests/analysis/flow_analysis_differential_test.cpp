// Differential test: the flat single-pass analysis in src/analysis/ against
// the map-based reference (flow_analysis_reference.h). Every FlowAnalysis
// field and every TimeoutSequence field must agree bit for bit — doubles are
// compared as their bit patterns, times and durations as nanoseconds — on
// simulated flows, on hand-built captures that hit each corner of the flat
// design (out-of-order send times, reordered and tied ACK arrivals, the
// sparse slot table, extreme seqs, empty directions, unrecovered tails) and
// on seeded random captures.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/flow_analysis.h"
#include "flow_analysis_reference.h"
#include "radio/profiles.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace hsr::analysis {
namespace {

using trace::FlowCapture;
using util::Duration;
using util::TimePoint;

// Collects field mismatches between two analyses of one capture.
class Diff {
 public:
  explicit Diff(std::string label) : label_(std::move(label)) {}

  template <std::integral T>
  void field(const char* name, T flat, T ref) {
    bits(name, static_cast<std::uint64_t>(flat), static_cast<std::uint64_t>(ref));
  }
  void field(const char* name, double flat, double ref) {
    bits(name, std::bit_cast<std::uint64_t>(flat), std::bit_cast<std::uint64_t>(ref));
  }
  void field(const char* name, Duration flat, Duration ref) {
    bits(name, static_cast<std::uint64_t>(flat.ns()),
         static_cast<std::uint64_t>(ref.ns()));
  }
  void field(const char* name, TimePoint flat, TimePoint ref) {
    bits(name, static_cast<std::uint64_t>(flat.ns()),
         static_cast<std::uint64_t>(ref.ns()));
  }

  const std::vector<std::string>& mismatches() const { return mismatches_; }

 private:
  void bits(const char* name, std::uint64_t flat, std::uint64_t ref) {
    if (flat == ref) return;
    std::ostringstream os;
    os << label_ << ": " << name << " flat=" << flat << " reference=" << ref;
    mismatches_.push_back(os.str());
  }

  std::string label_;
  std::vector<std::string> mismatches_;
};

void compare_sequences(Diff& d, const std::vector<TimeoutSequence>& flat,
                       const std::vector<TimeoutSequence>& ref) {
  d.field("timeout_sequences.size", flat.size(), ref.size());
  for (std::size_t i = 0; i < std::min(flat.size(), ref.size()); ++i) {
    const TimeoutSequence& a = flat[i];
    const TimeoutSequence& b = ref[i];
    d.field("ts.seq", a.seq, b.seq);
    d.field("ts.ca_end", a.ca_end, b.ca_end);
    d.field("ts.first_retx", a.first_retx, b.first_retx);
    d.field("ts.recovered", a.recovered, b.recovered);
    d.field("ts.recovered_observed", a.recovered_observed, b.recovered_observed);
    d.field("ts.num_timeouts", a.num_timeouts, b.num_timeouts);
    d.field("ts.retx_sent", a.retx_sent, b.retx_sent);
    d.field("ts.retx_lost", a.retx_lost, b.retx_lost);
    d.field("ts.spurious", a.spurious, b.spurious);
    d.field("ts.backoff_gap", a.backoff_gap, b.backoff_gap);
  }
}

struct DiffCounts {
  std::size_t sequences = 0;  // timeout sequences compared
  std::vector<std::string> mismatches;
};

// Runs both implementations over `capture` and records every difference.
void compare_all(const FlowCapture& capture, const std::string& label, DiffCounts& counts,
                 AnalysisConfig config = {}) {
  Diff d(label);
  const FlowAnalysis a = analyze_flow(capture, config);
  const FlowAnalysis b = reference::analyze_flow(capture, config);
  d.field("data_loss_rate", a.data_loss_rate, b.data_loss_rate);
  d.field("first_tx_loss_rate", a.first_tx_loss_rate, b.first_tx_loss_rate);
  d.field("ack_loss_rate", a.ack_loss_rate, b.ack_loss_rate);
  d.field("recovery_retx_loss_rate", a.recovery_retx_loss_rate,
          b.recovery_retx_loss_rate);
  d.field("loss_event_rate_all", a.loss_event_rate_all, b.loss_event_rate_all);
  d.field("loss_event_rate_data", a.loss_event_rate_data, b.loss_event_rate_data);
  d.field("first_transmissions", a.first_transmissions, b.first_transmissions);
  compare_sequences(d, a.timeout_sequences, b.timeout_sequences);
  d.field("fast_retransmits", a.fast_retransmits, b.fast_retransmits);
  d.field("loss_indications", a.loss_indications, b.loss_indications);
  d.field("timeout_probability", a.timeout_probability, b.timeout_probability);
  d.field("spurious_fraction", a.spurious_fraction, b.spurious_fraction);
  d.field("mean_recovery_duration", a.mean_recovery_duration, b.mean_recovery_duration);
  d.field("total_recovery_time", a.total_recovery_time, b.total_recovery_time);
  d.field("recovery_time_fraction", a.recovery_time_fraction, b.recovery_time_fraction);
  d.field("mean_first_rto", a.mean_first_rto, b.mean_first_rto);
  d.field("mean_rtt", a.mean_rtt, b.mean_rtt);
  d.field("mean_window_segments", a.mean_window_segments, b.mean_window_segments);
  d.field("ack_burst_loss_probability", a.ack_burst_loss_probability,
          b.ack_burst_loss_probability);
  d.field("ack_burst_loss_episode", a.ack_burst_loss_episode, b.ack_burst_loss_episode);
  d.field("goodput_pps", a.goodput_pps, b.goodput_pps);
  d.field("unique_segments", a.unique_segments, b.unique_segments);
  d.field("span", a.span, b.span);

  // The lower-level views over the same classification pass.
  const auto rto = find_rto_retransmissions(capture, config);
  const auto rto_ref = reference::find_rto_retransmissions(capture, config);
  d.field("find_rto_retransmissions.size", rto.size(), rto_ref.size());
  if (rto != rto_ref) d.field("find_rto_retransmissions.indices", 0, 1);
  d.field("count_fast_retransmissions", count_fast_retransmissions(capture, config),
          reference::count_fast_retransmissions(capture, config));
  for (const Duration rtt :
       {Duration::millis(1), Duration::millis(60), Duration::seconds(2)}) {
    d.field("estimate_ack_burst_loss", estimate_ack_burst_loss(capture, rtt),
            reference::estimate_ack_burst_loss(capture, rtt));
  }
  // The capture's own count shares the slot helper with analyze_flow.
  d.field("unique_segments_delivered", capture.unique_segments_delivered(),
          reference::unique_segments_delivered(capture));

  counts.sequences += b.timeout_sequences.size();
  counts.mismatches.insert(counts.mismatches.end(), d.mismatches().begin(),
                           d.mismatches().end());
}

std::string first_mismatches(const DiffCounts& counts) {
  std::string out;
  for (std::size_t i = 0; i < std::min<std::size_t>(counts.mismatches.size(), 10); ++i) {
    out += counts.mismatches[i] + "\n";
  }
  return out;
}

// Records hand-made captures, in nanoseconds so ties are exact.
class Recorder {
 public:
  // Data send of `seq` at `sent`; arrived < 0 means lost, arrived == kInFlight
  // leaves the fate open (still in flight at capture end).
  Recorder& data(SeqNo seq, std::int64_t sent, std::int64_t arrived) {
    record(cap_.data, net::PacketKind::kData, seq, 0, sent, arrived);
    return *this;
  }
  Recorder& ack(SeqNo ack_next, std::int64_t sent, std::int64_t arrived) {
    record(cap_.acks, net::PacketKind::kAck, 0, ack_next, sent, arrived);
    return *this;
  }
  const FlowCapture& capture() const { return cap_; }

  static constexpr std::int64_t kInFlight = -2;

 private:
  void record(trace::DirectionCapture& dir, net::PacketKind kind, SeqNo seq,
              SeqNo ack_next, std::int64_t sent, std::int64_t arrived) {
    net::Packet p;
    p.id = next_id_++;
    p.kind = kind;
    p.seq = seq;
    p.ack_next = ack_next;
    p.size_bytes = kind == net::PacketKind::kData ? 1400 : 52;
    const TimePoint at = TimePoint::from_ns(sent);
    dir.on_send(p, at);
    if (arrived >= 0) {
      dir.on_deliver(p, at, TimePoint::from_ns(arrived));
    } else if (arrived != kInFlight) {
      dir.on_drop(p, at, net::DropCause::bernoulli());
    }
  }

  FlowCapture cap_;
  std::uint64_t next_id_ = 1;
};

constexpr std::int64_t kMs = 1'000'000;

// Simulated flows: the three high-speed providers and their stationary
// controls, organic and under scripted faults on both directions.
TEST(FlowAnalysisDifferentialTest, SimulatedFlowsMatchReferenceBitForBit) {
  std::vector<radio::ProviderProfile> profiles = radio::all_highspeed_profiles();
  ASSERT_EQ(profiles.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    profiles.push_back(radio::stationary_of(profiles[i]));
  }

  DiffCounts counts;
  std::size_t flows = 0;
  for (const auto& profile : profiles) {
    for (const std::uint64_t seed : {7u, 2015u}) {
      for (const bool faults : {false, true}) {
        workload::FlowRunConfig cfg;
        cfg.profile = profile;
        cfg.duration = Duration::seconds(30);
        cfg.seed = seed;
        if (faults) {
          // A handoff-style data blackout, an ACK-burst kill (spurious
          // timeouts), lost retransmissions, duplicates and an uplink delay
          // spike that reorders ACK arrivals.
          cfg.downlink_faults.blackout(TimePoint::from_seconds(5.0),
                                       TimePoint::from_seconds(6.5));
          cfg.downlink_faults.drop_retransmissions(3);
          cfg.downlink_faults.duplicate_next(4);
          cfg.uplink_faults.kill_acks(TimePoint::from_seconds(12.0),
                                      TimePoint::from_seconds(13.0));
          cfg.uplink_faults.delay_spike(TimePoint::from_seconds(20.0),
                                        TimePoint::from_seconds(20.5),
                                        Duration::millis(400));
        }
        const workload::FlowRunResult run = workload::run_flow(cfg);
        ASSERT_TRUE(run.status.is_ok());
        compare_all(run.capture,
                    profile.name + " seed " + std::to_string(seed) +
                        (faults ? " faults" : " organic"),
                    counts);
        ++flows;
      }
    }
  }
  EXPECT_EQ(flows, 24u);
  EXPECT_GT(counts.sequences, 0u);
  EXPECT_EQ(counts.mismatches.size(), 0u) << first_mismatches(counts);
}

TEST(FlowAnalysisDifferentialTest, OutOfOrderSendTimes) {
  Recorder b;
  // Index order and time order disagree: seq 1's RTO retransmission is
  // logged before the original copy's timestamp, and a re-send of seq 2
  // carries a time earlier than its first send.
  b.data(1, 100 * kMs, -1)
      .data(2, 50 * kMs, 80 * kMs)
      .data(1, 20 * kMs, 60 * kMs)
      .data(2, 10 * kMs, -1)
      .data(3, 900 * kMs, 930 * kMs)
      .data(1, 1500 * kMs, 1530 * kMs)
      .ack(2, 65 * kMs, 95 * kMs)
      .ack(4, 935 * kMs, 965 * kMs)
      .data(3, 700 * kMs, -1);
  DiffCounts counts;
  compare_all(b.capture(), "out-of-order sends", counts);
  EXPECT_EQ(counts.mismatches.size(), 0u) << first_mismatches(counts);
}

TEST(FlowAnalysisDifferentialTest, ReorderedAndTiedAckArrivals) {
  Recorder b;
  // A window of five; seq 1 lost, its dup ACKs arrive reordered and tied,
  // and the fast retransmission lands exactly at the tie.
  b.data(1, 0, -1);
  for (SeqNo s = 2; s <= 5; ++s) b.data(s, static_cast<std::int64_t>(s) * kMs, 30 * kMs);
  b.ack(1, 31 * kMs, 70 * kMs)
      .ack(1, 32 * kMs, 65 * kMs)   // overtakes the first dup ACK
      .ack(1, 33 * kMs, 65 * kMs)   // tie
      .ack(6, 34 * kMs, 65 * kMs)   // tie with a different ack_next
      .data(1, 65 * kMs, 95 * kMs)  // sent at the tied arrival instant
      .ack(6, 96 * kMs, 120 * kMs)
      .ack(6, 97 * kMs, 120 * kMs)
      .data(6, 200 * kMs, -1)
      .data(6, 1200 * kMs, 1230 * kMs)  // RTO: recovered by tied arrivals
      .ack(7, 1231 * kMs, 1260 * kMs)
      .ack(8, 1232 * kMs, 1260 * kMs);
  DiffCounts counts;
  compare_all(b.capture(), "reordered+tied acks", counts);
  for (const unsigned threshold : {0u, 1u, 2u, 3u, 4u}) {
    AnalysisConfig cfg;
    cfg.dupack_threshold = threshold;
    compare_all(b.capture(), "dupack threshold " + std::to_string(threshold), counts,
                cfg);
  }
  EXPECT_EQ(counts.mismatches.size(), 0u) << first_mismatches(counts);
}

TEST(FlowAnalysisDifferentialTest, SeqsSpreadPastTwoToTheThirtyTwo) {
  // Four seqs spread over 2^33: the slot table cannot be dense.
  const SeqNo far = SeqNo{1} << 33;
  Recorder b;
  b.data(1, 0, -1)
      .data(far, 1 * kMs, 31 * kMs)
      .data(far + 7, 2 * kMs, -1)
      .data(1, 1000 * kMs, 1030 * kMs)
      .ack(2, 1031 * kMs, 1060 * kMs)
      .data(far + 7, 2500 * kMs, -1)
      .data(far + 7, 4500 * kMs, 4530 * kMs)
      .ack(far + 8, 4531 * kMs, 4560 * kMs)
      .data(SeqNo{1} << 40, 4600 * kMs, 4630 * kMs);
  DiffCounts counts;
  compare_all(b.capture(), "sparse seqs", counts);
  EXPECT_EQ(counts.mismatches.size(), 0u) << first_mismatches(counts);
}

TEST(FlowAnalysisDifferentialTest, SeqZeroAndMaximum) {
  const SeqNo top = std::numeric_limits<SeqNo>::max();
  Recorder b;
  b.data(0, 0, -1)
      .data(top, 1 * kMs, 31 * kMs)
      .data(0, 1000 * kMs, 1030 * kMs)  // RTO of seq 0
      .ack(1, 1031 * kMs, 1060 * kMs)
      .ack(top, 1032 * kMs, 1061 * kMs)
      .data(top, 3000 * kMs, -1)        // RTO of the top seq: never recovered,
      .data(top, 5000 * kMs, -1);       // no ack_next can exceed it
  DiffCounts counts;
  compare_all(b.capture(), "seq 0 and max", counts);
  // Both ends alone (dense: a spread of zero).
  Recorder only_top;
  only_top.data(top, 0, -1)
      .data(top, 1000 * kMs, 1030 * kMs)
      .ack(top, 1031 * kMs, 1060 * kMs);
  compare_all(only_top.capture(), "max only", counts);
  Recorder only_zero;
  only_zero.data(0, 0, -1).data(0, 1000 * kMs, Recorder::kInFlight);
  compare_all(only_zero.capture(), "zero only", counts);
  EXPECT_EQ(counts.mismatches.size(), 0u) << first_mismatches(counts);
}

TEST(FlowAnalysisDifferentialTest, EmptyAndOneSidedCaptures) {
  DiffCounts counts;
  compare_all(FlowCapture{}, "empty", counts);

  Recorder data_only;
  data_only.data(1, 0, -1).data(2, 1 * kMs, 30 * kMs).data(1, 1000 * kMs, -1)
      .data(1, 3000 * kMs, 3030 * kMs);
  compare_all(data_only.capture(), "data only", counts);

  Recorder ack_only;
  ack_only.ack(2, 0, 30 * kMs).ack(2, 10 * kMs, -1).ack(3, 200 * kMs, -1)
      .ack(4, 20 * kMs, 25 * kMs);  // sent before the previous ACK: round order breaks
  compare_all(ack_only.capture(), "ack only", counts);
  EXPECT_EQ(counts.mismatches.size(), 0u) << first_mismatches(counts);
}

TEST(FlowAnalysisDifferentialTest, UnrecoveredTail) {
  Recorder b;
  b.data(1, 0, 30 * kMs)
      .ack(2, 31 * kMs, 60 * kMs)
      .data(2, 61 * kMs, -1)
      .data(3, 62 * kMs, 92 * kMs)
      .ack(2, 93 * kMs, 120 * kMs)
      .data(2, 1061 * kMs, -1)  // RTO
      .data(2, 3061 * kMs, -1)  // backed-off RTO, still lost
      .data(3, 3062 * kMs, Recorder::kInFlight)
      .data(2, 7061 * kMs, Recorder::kInFlight);  // trace ends mid-recovery
  DiffCounts counts;
  compare_all(b.capture(), "unrecovered tail", counts);
  EXPECT_EQ(counts.mismatches.size(), 0u) << first_mismatches(counts);
}

// Random captures: small seq pools at random bases (0, around 2^32, near
// the top of the range), millisecond-quantized times so ties are common,
// occasional backward jumps in send time, random fates and ACK transits
// that reorder arrivals.
FlowCapture random_capture(util::Rng& rng) {
  Recorder b;
  const std::int64_t pool = rng.uniform_int(1, 40);
  const SeqNo bases[] = {0, (SeqNo{1} << 32) - 20,
                         std::numeric_limits<SeqNo>::max() - 64};
  const SeqNo base = bases[rng.uniform_int(0, 2)];
  const bool sparse = rng.bernoulli(0.2);
  const std::int64_t n_data = rng.uniform_int(0, 160);
  const std::int64_t n_acks = rng.uniform_int(0, 120);
  std::int64_t t = 0;
  for (std::int64_t i = 0; i < n_data; ++i) {
    const std::int64_t step = rng.bernoulli(0.05) ? -rng.uniform_int(0, 500) * kMs
                                                   : rng.uniform_int(0, 400) * kMs;
    t = std::max<std::int64_t>(0, t + step);
    SeqNo seq = base + static_cast<SeqNo>(rng.uniform_int(0, pool - 1));
    if (sparse && rng.bernoulli(0.3)) seq += SeqNo{1} << 34;
    const double fate = rng.uniform();
    const std::int64_t arrived = fate < 0.3    ? -1
                                 : fate < 0.35 ? Recorder::kInFlight
                                               : t + rng.uniform_int(0, 60) * kMs;
    b.data(seq, t, arrived);
  }
  std::int64_t u = 0;
  for (std::int64_t i = 0; i < n_acks; ++i) {
    const std::int64_t step = rng.bernoulli(0.05) ? -rng.uniform_int(0, 200) * kMs
                                                   : rng.uniform_int(0, 300) * kMs;
    u = std::max<std::int64_t>(0, u + step);
    const SeqNo ack_next = base + static_cast<SeqNo>(rng.uniform_int(0, pool));
    const double fate = rng.uniform();
    const std::int64_t arrived = fate < 0.3    ? -1
                                 : fate < 0.33 ? Recorder::kInFlight
                                               : u + rng.uniform_int(0, 80) * kMs;
    b.ack(ack_next, u, arrived);
  }
  return b.capture();
}

TEST(FlowAnalysisDifferentialTest, SeededRandomCapturesMatchReference) {
  util::Rng rng(20160627);
  DiffCounts counts;
  for (int i = 0; i < 2000; ++i) {
    const FlowCapture capture = random_capture(rng);
    AnalysisConfig cfg;
    cfg.dupack_threshold = static_cast<unsigned>(rng.uniform_int(0, 4));
    cfg.ack_trigger_window = Duration::millis(rng.uniform_int(0, 50));
    compare_all(capture, "random capture " + std::to_string(i), counts, cfg);
  }
  EXPECT_GT(counts.sequences, 1000u);
  EXPECT_EQ(counts.mismatches.size(), 0u) << first_mismatches(counts);
}

}  // namespace
}  // namespace hsr::analysis
