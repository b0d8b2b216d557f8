#include "trace/capture.h"

#include <algorithm>

#include "util/logging.h"

namespace hsr::trace {

void FlowCapture::reserve_for(Duration duration, double data_rate_bps,
                              std::uint32_t mss_bytes) {
  if (duration <= Duration::zero() || data_rate_bps <= 0.0 || mss_bytes == 0) {
    return;
  }
  const double segments =
      duration.to_seconds() * data_rate_bps / (8.0 * static_cast<double>(mss_bytes));
  // Full saturated-link estimate, clamped. (This used to reserve a quarter
  // tranche and let vector doubling absorb the rest; the growth that saved
  // memory up front cost reallocations mid-flow, which the steady-state
  // zero-allocation contract — FlowAllocTest, bench_hotpath — now forbids.)
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

void FlowCapture::reserve_id_space(std::size_t expected_ids) {
  data.reserve_ids(expected_ids);
  acks.reserve_ids(expected_ids);
}

void DirectionCapture::reserve(std::size_t expected_transmissions) {
  txs_.reserve(expected_transmissions);
  // Ids are drawn from one per-flow counter shared by both directions, so
  // the id index spans roughly twice this direction's own traffic.
  index_of_id_.reserve(expected_transmissions * 2);
}

void DirectionCapture::reserve_ids(std::size_t expected_ids) {
  index_of_id_.reserve(expected_ids);
}

void DirectionCapture::on_send(const Packet& packet, TimePoint when) {
  // Record in place: no Transmission temporary on the per-packet path.
  if (packet.id >= index_of_id_.size()) {
    index_of_id_.resize(packet.id + 1, 0);
  }
  index_of_id_[packet.id] = txs_.size() + 1;
  Transmission& tx = txs_.emplace_back();
  tx.packet = packet;
  tx.sent = when;
}

std::size_t DirectionCapture::index_of(std::uint64_t packet_id) const {
  const std::size_t slot =
      packet_id < index_of_id_.size() ? index_of_id_[packet_id] : 0;
  HSR_CHECK_MSG(slot != 0, "fate report for unseen packet");
  return slot - 1;
}

void DirectionCapture::on_drop(const Packet& packet, TimePoint when,
                               const DropCause& cause) {
  (void)when;
  txs_[index_of(packet.id)].drop_cause = cause;
  ++lost_;
}

void DirectionCapture::on_deliver(const Packet& packet, TimePoint sent, TimePoint arrived) {
  (void)sent;
  txs_[index_of(packet.id)].arrived = arrived;
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
