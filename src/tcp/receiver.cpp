#include "tcp/receiver.h"

#include <algorithm>

#include "util/logging.h"

namespace hsr::tcp {

TcpReceiver::TcpReceiver(sim::Simulator& sim, TcpConfig config, FlowId flow,
                         PacketSendFn send_ack)
    : sim_(sim),
      cfg_(config),
      flow_(flow),
      send_ack_(std::move(send_ack)),
      delack_timer_(sim, [this] { on_delack_timer(); }),
      out_of_order_(/*base=*/1, std::size_t{config.receiver_window} * 4) {
  HSR_CHECK(static_cast<bool>(send_ack_));
  HSR_CHECK(cfg_.delayed_ack_b >= 1);
}

// HSR_HOT_PATH_BEGIN — per-segment delivery region: on_data, the delayed-ACK
// decision and ACK emission run for every arriving segment and must not
// allocate (the reassembly scoreboard is flat, the SACK blocks are written
// into the packet's fixed array).

void TcpReceiver::on_data(const net::Packet& packet) {
  HSR_CHECK(packet.kind == net::PacketKind::kData);
  ++stats_.segments_received;

  const SeqNo seq = packet.seq;
  if (seq < rcv_next_ || out_of_order_.test(seq)) {
    // Duplicate payload: the hallmark of a spurious retransmission (the
    // original copy already arrived). Ack immediately (RFC 5681 §4.2).
    ++stats_.duplicate_segments;
    if (cfg_.adaptive_delack) quickack_budget_ = cfg_.quickack_segments;
    send_ack_now();
    return;
  }

  if (seq == rcv_next_) {
    ++stats_.unique_segments;
    ++rcv_next_;
    // Drain any contiguous out-of-order segments, then advance the
    // scoreboard floor past everything consumed (the amortized O(1)
    // equivalent of erasing set minima one node at a time).
    while (out_of_order_.test(rcv_next_)) ++rcv_next_;
    out_of_order_.advance_base(rcv_next_);
    stats_.highest_contiguous = rcv_next_ - 1;
    ++unacked_in_order_;
    maybe_delay_ack();
  } else {
    // Above rcv_next_: a hole exists. Buffer and send an immediate
    // duplicate ACK to trigger fast retransmit at the sender.
    ++stats_.unique_segments;
    out_of_order_.mark(seq);
    if (cfg_.adaptive_delack) quickack_budget_ = cfg_.quickack_segments;
    send_ack_now();
  }
}

void TcpReceiver::maybe_delay_ack() {
  if (quickack_budget_ > 0) {
    // Loss-suspicious period: every ACK is precious (paper §V-A), so do
    // not batch until the budget drains.
    --quickack_budget_;
    send_ack_now();
    return;
  }
  if (unacked_in_order_ >= cfg_.delayed_ack_b) {
    send_ack_now();
  } else if (!delack_timer_.armed()) {
    delack_timer_.arm(cfg_.delayed_ack_timeout);
  }
}

void TcpReceiver::on_delack_timer() {
  if (unacked_in_order_ > 0) send_ack_now();
}

void TcpReceiver::send_ack_now() {
  delack_timer_.cancel();
  unacked_in_order_ = 0;

  net::Packet ack;
  ack.id = net::allocate_packet_id();
  ack.flow = flow_;
  ack.kind = net::PacketKind::kAck;
  ack.ack_next = rcv_next_;
  ack.size_bytes = cfg_.ack_bytes;
  if (cfg_.enable_sack && !out_of_order_.empty()) {
    // Report up to kMaxSackBlocks contiguous out-of-order blocks starting
    // from a rotating cursor (RFC 2018 rotates so the sender accumulates
    // the full picture across consecutive ACKs even when the holes are
    // badly fragmented). Two bitmap scans replace the historical
    // collect-into-a-vector pass: the first counts the blocks, the second
    // writes the selected ones straight into the ACK's fixed array — the
    // emitted bytes are identical, the scratch allocation is gone.
    std::size_t n = 0;
    for (SeqNo s = out_of_order_.min_marked(); s != SeqScoreboard::kNone;
         s = out_of_order_.next_marked(out_of_order_.next_hole(s))) {
      ++n;
    }
    const std::size_t to_report = std::min(n, net::Packet::kMaxSackBlocks);
    // Block j (0-based, in sequence order) lands in report slot
    // (j - rotation) mod n; slots >= to_report are not reported. This is
    // the inverse of the historical `blocks[(rotation + i) % n]` gather,
    // so the array contents match byte for byte.
    const std::size_t rot = sack_rotation_ % n;
    std::size_t j = 0;
    std::size_t emitted = 0;
    for (SeqNo s = out_of_order_.min_marked();
         s != SeqScoreboard::kNone && emitted < to_report; ++j) {
      const SeqNo end = out_of_order_.next_hole(s);
      const std::size_t slot = (j + n - rot) % n;
      if (slot < to_report) {
        ack.sack[slot] = {s, end};
        ++emitted;
      }
      s = out_of_order_.next_marked(end);
    }
    ack.sack_count = static_cast<std::uint8_t>(to_report);
    sack_rotation_ = (sack_rotation_ + to_report) % n;
  }
  ++stats_.acks_sent;
  send_ack_(ack);
}

// HSR_HOT_PATH_END

}  // namespace hsr::tcp
