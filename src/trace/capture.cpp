#include "trace/capture.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace hsr::trace {

void FlowCapture::reserve_for(Duration duration, double data_rate_bps,
                              std::uint32_t mss_bytes) {
  if (duration <= Duration::zero() || data_rate_bps <= 0.0 || mss_bytes == 0) {
    return;
  }
  const double segments =
      duration.to_seconds() * data_rate_bps / (8.0 * static_cast<double>(mss_bytes));
  // Full saturated-link estimate, clamped.
  const std::size_t data_reserve = std::clamp(
      segments >= static_cast<double>(kMaxReserveTx)
          ? kMaxReserveTx
          : static_cast<std::size_t>(segments),
      kMinReserveTx, kMaxReserveTx);
  data.reserve(data_reserve);
  // ACK-direction upper bound: the receiver never sends more ACKs than it
  // received segments (quickack and the delack timer only close the gap
  // toward one-per-segment), so the data-side estimate covers ACKs too.
  acks.reserve(data_reserve);
}

DirectionCapture::DirectionCapture(std::vector<Transmission> transmissions)
    : txs_(std::move(transmissions)) {
  for (const auto& tx : txs_) lost_ += tx.drop_cause ? 1 : 0;
}

void DirectionCapture::reserve(std::size_t expected_transmissions) {
  txs_.reserve(expected_transmissions);
}

// HSR_HOT_PATH_BEGIN — the taps run once per packet; fates join by position.
void DirectionCapture::on_send(const Packet& packet, TimePoint when) {
  HSR_CHECK_MSG(txs_.empty() || packet.id > txs_.back().packet.id,
                "capture send with a non-increasing packet id");
  // Record in place: no Transmission temporary on the per-packet path.
  Transmission& tx = txs_.emplace_back();  // hsr-lint-ok: pre-sized by reserve_for
  tx.packet.id = packet.id;
  tx.packet.seq = packet.seq;
  tx.packet.ack_next = packet.ack_next;
  tx.packet.size_bytes = packet.size_bytes;
  tx.packet.retx_count = packet.retx_count;
  tx.sent = when;
}

void DirectionCapture::on_drop(const Packet& packet, TimePoint when,
                               const DropCause& cause) {
  (void)when;
  HSR_CHECK_MSG(!txs_.empty() && txs_.back().packet.id == packet.id,
                "drop report for a packet other than the newest send (unseen or late)");
  txs_.back().drop_cause = cause;
  ++lost_;
}

void DirectionCapture::on_deliver(const Packet& packet, TimePoint sent, TimePoint arrived) {
  (void)sent;
  std::size_t i = next_delivery_;
  while (i < txs_.size() && txs_[i].drop_cause) ++i;
  if (i == txs_.size() || txs_[i].packet.id != packet.id) i = index_of(packet.id);
  txs_[i].arrived = arrived;
  next_delivery_ = i + 1;
}
// HSR_HOT_PATH_END

std::size_t DirectionCapture::index_of(std::uint64_t packet_id) const {
  const auto it = std::lower_bound(
      txs_.begin(), txs_.end(), packet_id,
      [](const Transmission& tx, std::uint64_t id) { return tx.packet.id < id; });
  HSR_CHECK_MSG(it != txs_.end() && it->packet.id == packet_id,
                "fate report for unseen packet");
  return static_cast<std::size_t>(it - txs_.begin());
}

Duration DirectionCapture::mean_transit() const {
  std::int64_t total_ns = 0;
  std::int64_t n = 0;
  for (const auto& tx : txs_) {
    if (tx.arrived) {
      total_ns += tx.transit().ns();
      ++n;
    }
  }
  if (n == 0) return Duration::zero();
  return Duration::nanos(total_ns / n);
}

SeqSlots::SeqSlots(const std::vector<Transmission>& txs) {
  if (txs.empty()) return;
  SeqNo lo = txs.front().packet.seq;
  SeqNo hi = lo;
  for (const auto& tx : txs) {
    lo = std::min(lo, tx.packet.seq);
    hi = std::max(hi, tx.packet.seq);
  }
  min_ = lo;
  if (hi - lo < kMaxDenseSpread * txs.size()) {
    size_ = static_cast<std::size_t>(hi - lo) + 1;
    return;
  }
  distinct_.reserve(txs.size());
  for (const auto& tx : txs) distinct_.push_back(tx.packet.seq);
  std::sort(distinct_.begin(), distinct_.end());
  distinct_.erase(std::unique(distinct_.begin(), distinct_.end()), distinct_.end());
  size_ = distinct_.size();
}

std::size_t SeqSlots::sparse_slot(SeqNo seq) const {
  const auto it = std::lower_bound(distinct_.begin(), distinct_.end(), seq);
  HSR_DCHECK(it != distinct_.end() && *it == seq);
  return static_cast<std::size_t>(it - distinct_.begin());
}

std::uint64_t FlowCapture::unique_segments_delivered() const {
  const auto& txs = data.transmissions();
  const SeqSlots slots(txs);
  std::vector<bool> delivered(slots.size(), false);
  std::uint64_t unique = 0;
  for (const auto& tx : txs) {
    if (!tx.arrived) continue;
    const std::size_t slot = slots.slot_of(tx.packet.seq);
    if (!delivered[slot]) {
      delivered[slot] = true;
      ++unique;
    }
  }
  return unique;
}

Duration FlowCapture::span() const {
  TimePoint first = TimePoint::max();
  TimePoint last = TimePoint::zero();
  auto scan = [&](const DirectionCapture& dir) {
    for (const auto& tx : dir.transmissions()) {
      first = std::min(first, tx.sent);
      last = std::max(last, tx.sent);
      if (tx.arrived) last = std::max(last, *tx.arrived);
    }
  };
  scan(data);
  scan(acks);
  if (first == TimePoint::max()) return Duration::zero();
  return last - first;
}

Duration FlowCapture::estimated_rtt() const {
  return data.mean_transit() + acks.mean_transit();
}

}  // namespace hsr::trace
