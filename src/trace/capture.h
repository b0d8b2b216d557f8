// Packet capture: the simulation's substitute for the paper's wireshark /
// shark captures at the phone and the server.
//
// A DirectionCapture taps one link and records every transmission together
// with its fate (delivered at some time, or lost). A FlowCapture bundles the
// data direction and the ACK direction of one TCP flow. The analysis module
// consumes these records exactly as the paper's methodology consumes
// endpoint captures; it must not peek at the stack's internal state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "util/time.h"

namespace hsr::trace {

using net::DropCause;
using net::Packet;
using net::SeqNo;
using util::Duration;
using util::TimePoint;

// One scripted fault that fired on a packet (fault::FaultInjector audit
// trail). Stored alongside the transmissions so an archived trace explains
// WHY a packet died or stalled — a channel-loss drop caused by a scripted
// blackout is distinguishable from organic radio loss during re-analysis.
struct FaultRecord {
  TimePoint when;
  char direction = '?';          // 'D' data link, 'A' ACK link
  std::uint64_t packet_id = 0;
  SeqNo seq = 0;                 // seq for data packets, ack_next for ACKs
  net::PacketKind kind = net::PacketKind::kData;
  std::uint32_t directive = 0;   // index of the directive in the FaultPlan
  char action = 'X';             // 'X' drop, 'L' delay, '2' duplicate
  Duration delay;                // extra latency (delay actions only)
  std::string label;             // directive label (no whitespace)
};

// The header fields a capture keeps of one packet: exactly the fields the
// archives store (text and hsrtrace-b2 alike), so a live capture and a
// decoded one are equal field for field. The flow and the packet kind are
// the FlowCapture's and the direction's; SACK blocks, subflow and meta_seq
// stay with net::Packet, which the stack still needs (DESIGN.md §6h).
struct CapturedHeader {
  std::uint64_t id = 0;
  SeqNo seq = 0;                  // data: segment number
  SeqNo ack_next = 0;             // ACK: cumulative next-expected segment
  std::uint32_t size_bytes = 0;
  std::uint32_t retx_count = 0;   // 0 for a first transmission
};

// One packet put on the wire, with its observed fate.
struct Transmission {
  CapturedHeader packet;               // header as sent
  TimePoint sent;
  std::optional<TimePoint> arrived;    // nullopt => lost
  // Attribution for lost packets: WHY the packet died (the category, plus
  // the directive index of a scripted kill). nullopt for delivered packets
  // and for packets still in flight at capture end.
  std::optional<DropCause> drop_cause;

  bool lost() const { return !arrived.has_value(); }
  // One-way transit time; only valid when delivered.
  Duration transit() const { return *arrived - sent; }
};
// Decode, analysis and live capture all stream these records: 32 bytes of
// header, 8 sent, 16 arrived and 12 drop_cause, padded to 72.
static_assert(sizeof(Transmission) <= 72, "capture records must stay compact");

class DirectionCapture final : public net::LinkTap {
 public:
  DirectionCapture() = default;
  // A finished capture, as the trace readers rebuild it: every record already
  // carries its fate, and its id is plain data. Counts the drops as losses.
  explicit DirectionCapture(std::vector<Transmission> transmissions);

  // Pre-sizes the transmission log for an expected packet count, so
  // steady-state recording appends with no reallocation. Call once before
  // the simulation starts; growth beyond the reservation falls back to the
  // vector's own geometric resizing.
  void reserve(std::size_t expected_transmissions);

  // Live recording, joining each fate to its send by position under the
  // net::LinkTap contracts (DESIGN.md §6f): ids increase along the sends, a
  // drop fates the newest record, and a delivery first tries the record after
  // the previous delivery, binary-searching by id only on a miss.
  void on_send(const Packet& packet, TimePoint when) override;
  void on_drop(const Packet& packet, TimePoint when, const DropCause& cause) override;
  void on_deliver(const Packet& packet, TimePoint sent, TimePoint arrived) override;

  const std::vector<Transmission>& transmissions() const { return txs_; }

  std::uint64_t sent_count() const { return txs_.size(); }
  std::uint64_t lost_count() const { return lost_; }
  double loss_rate() const {
    return txs_.empty() ? 0.0
                        : static_cast<double>(lost_) / static_cast<double>(txs_.size());
  }
  // Mean one-way transit time over delivered packets.
  Duration mean_transit() const;

 private:
  // Index of the record for `packet_id` in the id-sorted log (checked).
  std::size_t index_of(std::uint64_t packet_id) const;

  std::vector<Transmission> txs_;
  std::uint64_t lost_ = 0;
  // Where on_deliver looks first: the record after the previous delivery.
  std::size_t next_delivery_ = 0;
};

// Dense slot numbers for the data seqs of one transmission log, so per-seq
// state can live in a flat array instead of a node-based map. Seqs are
// dense per flow (one slot per MSS-sized segment), so a seq's slot is
// normally `seq - min_seq`. When the seq range exceeds kMaxDenseSpread times
// the transmission count (only a crafted or corrupt archive does that), the
// slots index a sorted table of the distinct seqs instead, so no input can
// choose the size of a table: size() never exceeds
// kMaxDenseSpread * txs.size().
class SeqSlots {
 public:
  static constexpr std::uint64_t kMaxDenseSpread = 4;

  explicit SeqSlots(const std::vector<Transmission>& txs);

  // One past the largest slot.
  std::size_t size() const { return size_; }
  // Slot of `seq`, which must be the seq of one of the transmissions the
  // slots were built from.
  std::size_t slot_of(SeqNo seq) const {
    return distinct_.empty() ? static_cast<std::size_t>(seq - min_) : sparse_slot(seq);
  }

 private:
  std::size_t sparse_slot(SeqNo seq) const;

  SeqNo min_ = 0;
  std::size_t size_ = 0;
  std::vector<SeqNo> distinct_;  // sorted distinct seqs; empty when dense
};

// Both directions of one flow.
struct FlowCapture {
  net::FlowId flow = 0;
  DirectionCapture data;  // downlink: data segments
  DirectionCapture acks;  // uplink: acknowledgements
  // Scripted-fault audit trail, in trigger order (empty for organic runs).
  std::vector<FaultRecord> faults;

  // Flow-duration heuristic reserve: pre-sizes both directions for a flow
  // expected to run `duration` over a data link of `data_rate_bps`, sending
  // `mss_bytes` segments. The estimate assumes a saturated downlink (the
  // paper's bulk downloads), so it is an upper bound for loss- or
  // cwnd-limited flows — and it also bounds the ACK direction, since the
  // receiver never acknowledges more segments than arrived. The full
  // estimate is reserved up front (steady-state capture recording must not
  // reallocate — the zero-allocs-per-event contract), clamped to
  // [kMinReserveTx, kMaxReserveTx] so degenerate configs neither skip the
  // reserve nor overcommit memory.
  void reserve_for(Duration duration, double data_rate_bps,
                   std::uint32_t mss_bytes);

  static constexpr std::size_t kMinReserveTx = 1024;
  static constexpr std::size_t kMaxReserveTx = std::size_t{1} << 20;

  double data_loss_rate() const { return data.loss_rate(); }
  double ack_loss_rate() const { return acks.loss_rate(); }

  // Count of distinct data segments delivered at least once (goodput basis).
  // Counted over SeqSlots, the slot mapping analysis::analyze_flow uses.
  std::uint64_t unique_segments_delivered() const;
  // Duration from first to last captured event.
  Duration span() const;
  // Estimated path RTT: mean data transit + mean ACK transit.
  Duration estimated_rtt() const;
};

}  // namespace hsr::trace
