// Deterministic, scripted fault injection for the simulated network path.
//
// The paper's headline phenomena are fault-driven — 49.24 % of timeouts are
// spurious (every ACK of a round lost, parameter P_a) and timeout recovery
// stalls because retransmissions are lost at q ≈ 27 % — but organic channel
// models (Gilbert–Elliott, the radio environment) only reach those states
// stochastically. A FaultPlan turns them into directly scriptable events: an
// ordered list of directives that match on packet metadata (data vs ACK,
// sequence range, time window, retransmission flag) and fire a bounded
// number of times. The FaultInjector is a ChannelModel decorator, so it
// composes with any existing channel exactly like PerfectChannel /
// GilbertElliott / JitterChannel, and it records an audit trail of every
// triggered fault so traces show WHY a packet died.
//
// Plans are also portable artifacts: FaultPlan::to_text() serializes a plan
// to a line-oriented text format ("hsrfaultplan-v1", grammar at FaultPlan)
// and FaultPlan::parse() / load() read it back, so an archived experiment
// can be re-run bit-identically from its plan file alone.
//
// Everything here is deterministic by construction: no RNG, only packet
// metadata and the virtual clock.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/packet.h"
#include "trace/capture.h"
#include "util/status.h"
#include "util/time.h"

namespace hsr::fault {

using net::Packet;
using net::SeqNo;
using util::Duration;
using util::TimePoint;

enum class FaultAction : std::uint8_t {
  kDrop = 0,       // lose the packet on the air
  kDelay = 1,      // add extra latency (spike; large values force reordering)
  kDuplicate = 2,  // inject extra copies of the packet
};

// Returns the single-character audit code for an action ('X', 'L', '2').
char fault_action_code(FaultAction action);

// One scripted fault: fires when EVERY matcher holds, at most `max_triggers`
// times. Directives are evaluated in plan order; the first drop directive
// that matches wins, while delay/duplicate effects accumulate across
// directives.
struct FaultDirective {
  FaultAction action = FaultAction::kDrop;

  // --- Matchers (all must hold) --------------------------------------------
  // Packet kind filter. kAny matches data and ACKs alike.
  enum class KindFilter : std::uint8_t { kAny = 0, kData = 1, kAck = 2 };
  KindFilter kind = KindFilter::kAny;
  // Half-open virtual-time window [window_begin, window_end).
  TimePoint window_begin = TimePoint::zero();
  TimePoint window_end = TimePoint::max();
  // Inclusive sequence range, matched against `seq` for data packets and
  // `ack_next` for ACKs (so an ACK "round" is addressable by what it acks).
  SeqNo seq_min = 0;
  SeqNo seq_max = std::numeric_limits<SeqNo>::max();
  // Fire only on retransmitted data (pins the paper's q).
  bool only_retransmissions = false;
  // Stop firing after this many triggers ("drop the NEXT K ...").
  std::uint64_t max_triggers = std::numeric_limits<std::uint64_t>::max();

  // --- Action parameters ----------------------------------------------------
  Duration delay = Duration::zero();  // kDelay: extra latency per trigger
  unsigned copies = 1;                // kDuplicate: extra copies injected

  // Audit tag (serialized into traces and plan files; keep it
  // whitespace-free).
  std::string label = "fault";

  [[nodiscard]] bool matches(const Packet& packet, TimePoint now,
               std::uint64_t triggers_so_far) const;

  friend bool operator==(const FaultDirective&, const FaultDirective&) = default;
};

// An ordered fault script for ONE link direction. Builder methods cover the
// paper's recovery-phase pathologies; arbitrary directives can be appended
// directly to `directives`.
//
// Portable text serialization ("hsrfaultplan-v1") — a header line, then ONE
// positional-token line per directive:
//   hsrfaultplan-v1 directives=<N>
//   <action> <kind> <win_begin_ns> <win_end_ns> <seq_min> <seq_max>
//       <retx> <max_triggers> <delay_ns> <copies> <label>
// (one line; wrapped here for width) where
//   action is 'X' (drop), 'L' (delay) or '2' (duplicate) — the same codes
//     the trace fault-audit lines use;
//   kind is '*' (any), 'D' (data) or 'A' (ack);
//   retx is 0 or 1 (only_retransmissions);
//   '*' stands in for the unbounded sentinel in win_end_ns / seq_max /
//     max_triggers (TimePoint::max(), SeqNo max, uint64 max respectively);
//   label is a single whitespace-free token (sanitized on write).
// parse(to_text(p)) == p for every plan. The header count is an integrity
// check, and malformed input fails with the line number and offending token
// in the Status message. Tokens, numbers and token-less lines follow the
// rule set every text format shares (util/text.h, DESIGN.md §6i).
struct FaultPlan {
  std::vector<FaultDirective> directives;

  [[nodiscard]] bool empty() const { return directives.empty(); }

  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] static util::StatusOr<FaultPlan> parse(const std::string& text);
  [[nodiscard]] static util::StatusOr<FaultPlan> load(const std::string& path);

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

  // Drops every packet (data and ACK alike) in [from, to): a coverage-gap /
  // handoff blackout for the direction this plan is installed on.
  FaultPlan& blackout(TimePoint from, TimePoint to, std::string label = "blackout");

  // Drops every ACK in [from, to): forces the paper's spurious timeout when
  // the window spans a full round of ACKs (P_a as a scripted event).
  FaultPlan& kill_acks(TimePoint from, TimePoint to, std::string label = "ack-burst");

  // Drops every ACK whose cumulative ack_next lies in [lo, hi]: "kill all
  // ACKs of round N" addressed by sequence instead of time.
  FaultPlan& kill_ack_range(SeqNo lo, SeqNo hi, std::string label = "ack-round");

  // Drops the next `k` retransmitted data packets (pins q: with the organic
  // channel perfect, exactly these recovery-phase losses occur).
  FaultPlan& drop_retransmissions(std::uint64_t k, std::string label = "retx-loss");

  // Drops the next `k` transmissions of data segments in [lo, hi].
  FaultPlan& drop_segment_range(SeqNo lo, SeqNo hi, std::uint64_t k,
                                std::string label = "seg-loss");

  // Adds `extra` latency to every packet in [from, to) (delay spike; a spike
  // on a sub-range of packets reorders them past their successors).
  FaultPlan& delay_spike(TimePoint from, TimePoint to, Duration extra,
                         std::string label = "delay-spike");

  // Injects `copies` extra copies of the next `k` matching packets.
  FaultPlan& duplicate_next(std::uint64_t k, unsigned copies = 1,
                            std::string label = "duplicate");
};

// ChannelModel decorator executing a FaultPlan in front of an inner channel.
// Scripted drop directives are evaluated first (deterministically) and
// short-circuit the inner channel; packets they spare are passed through, so
// organic and scripted behaviour compose. Delay/duplicate directives apply
// only to delivered packets. Thread-compatible like every ChannelModel:
// owned by one Link in one single-threaded simulation.
class FaultInjector final : public net::ChannelModel {
 public:
  FaultInjector(FaultPlan plan, std::unique_ptr<net::ChannelModel> inner);

  // Scripted drops carry DropCause::scripted(directive_index); drops decided
  // by the inner channel keep the inner channel's cause.
  net::ChannelVerdict decide(const Packet& packet, TimePoint now) override;

  // Routes the audit trail into a capture ('D' for the data link, 'A' for
  // the ACK link). The sink must outlive every event the injector sees.
  void set_audit(std::vector<trace::FaultRecord>* sink, char direction) {
    audit_ = sink;
    direction_ = direction;
  }

  const FaultPlan& plan() const { return plan_; }
  // Times directive `i` has fired so far.
  std::uint64_t triggers(std::size_t i) const { return trigger_counts_[i]; }
  // Total scripted faults fired (all directives).
  std::uint64_t faults_triggered() const { return total_triggers_; }

 private:
  void record(std::size_t directive_index, const Packet& packet, TimePoint now,
              Duration delay);

  FaultPlan plan_;
  std::vector<std::uint64_t> trigger_counts_;
  std::uint64_t total_triggers_ = 0;
  std::unique_ptr<net::ChannelModel> inner_;
  std::vector<trace::FaultRecord>* audit_ = nullptr;
  char direction_ = '?';
};

}  // namespace hsr::fault
