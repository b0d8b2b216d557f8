#include "trace/capture.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace hsr::trace {
namespace {

Packet data(std::uint64_t id, SeqNo seq) {
  Packet p;
  p.id = id;
  p.kind = net::PacketKind::kData;
  p.seq = seq;
  p.size_bytes = 1400;
  return p;
}

Packet ack(std::uint64_t id, SeqNo ack_next) {
  Packet p;
  p.id = id;
  p.kind = net::PacketKind::kAck;
  p.ack_next = ack_next;
  p.size_bytes = 52;
  return p;
}

TEST(DirectionCaptureTest, RecordsFates) {
  DirectionCapture cap;
  cap.on_send(data(1, 1), TimePoint::from_ns(100));
  cap.on_deliver(data(1, 1), TimePoint::from_ns(100), TimePoint::from_ns(400));
  cap.on_send(data(2, 2), TimePoint::from_ns(200));
  cap.on_drop(data(2, 2), TimePoint::from_ns(200), DropCause::bernoulli());

  ASSERT_EQ(cap.sent_count(), 2u);
  EXPECT_EQ(cap.lost_count(), 1u);
  EXPECT_DOUBLE_EQ(cap.loss_rate(), 0.5);

  const auto& txs = cap.transmissions();
  EXPECT_FALSE(txs[0].lost());
  EXPECT_EQ(txs[0].transit(), util::Duration::nanos(300));
  EXPECT_TRUE(txs[1].lost());
  EXPECT_EQ(*txs[1].drop_cause, DropCause::bernoulli());
}

TEST(DirectionCaptureTest, MeanTransitOverDeliveredOnly) {
  DirectionCapture cap;
  cap.on_send(data(1, 1), TimePoint::from_ns(0));
  cap.on_deliver(data(1, 1), TimePoint::from_ns(0), TimePoint::from_ns(100));
  cap.on_send(data(2, 2), TimePoint::from_ns(0));
  cap.on_deliver(data(2, 2), TimePoint::from_ns(0), TimePoint::from_ns(300));
  cap.on_send(data(3, 3), TimePoint::from_ns(0));
  cap.on_drop(data(3, 3), TimePoint::from_ns(0), DropCause::queue_overflow());
  EXPECT_EQ(cap.mean_transit(), util::Duration::nanos(200));
}

TEST(DirectionCaptureTest, ReorderedAndDuplicateDeliveriesLandOnTheirRecords) {
  // Ids with gaps, as a shared multi-flow counter hands them out. Segment k
  // has id 10k and arrives at 100k ns; segment 3 is dropped at send.
  DirectionCapture cap;
  for (std::uint64_t k = 1; k <= 6; ++k) {
    cap.on_send(data(10 * k, k), TimePoint::from_ns(static_cast<std::int64_t>(k)));
    if (k == 3) {
      cap.on_drop(data(30, 3), TimePoint::from_ns(3), DropCause::queue_overflow());
    }
  }
  // Out of order, with a duplicate copy of segment 1 after later ones.
  for (const std::uint64_t k : {2u, 1u, 4u, 1u, 6u, 5u}) {
    cap.on_deliver(data(10 * k, k), TimePoint::from_ns(static_cast<std::int64_t>(k)),
                   TimePoint::from_ns(static_cast<std::int64_t>(100 * k)));
  }

  const auto& txs = cap.transmissions();
  ASSERT_EQ(txs.size(), 6u);
  for (std::uint64_t k = 1; k <= 6; ++k) {
    const Transmission& tx = txs[k - 1];
    EXPECT_EQ(tx.packet.id, 10 * k);
    if (k == 3) {
      EXPECT_TRUE(tx.lost());
      EXPECT_EQ(tx.drop_cause, DropCause::queue_overflow());
    } else {
      EXPECT_EQ(tx.arrived, TimePoint::from_ns(static_cast<std::int64_t>(100 * k)))
          << k;
      EXPECT_FALSE(tx.drop_cause.has_value()) << k;
    }
  }
  EXPECT_EQ(cap.lost_count(), 1u);
}

TEST(DirectionCaptureTest, BuiltFromRecordsCountsDrops) {
  // Records as a trace reader rebuilds them: fates already set, ids plain
  // data (repeated and decreasing here).
  std::vector<Transmission> txs(3);
  txs[0].packet.id = 7;
  txs[0].packet.seq = 1;
  txs[0].arrived = TimePoint::from_ns(10);
  txs[1].packet.id = 7;
  txs[1].packet.seq = 1;
  txs[1].drop_cause = DropCause::bernoulli();
  txs[2].packet.id = 3;  // in flight: neither delivered nor lost
  txs[2].packet.seq = 2;
  const DirectionCapture cap(std::move(txs));
  EXPECT_EQ(cap.sent_count(), 3u);
  EXPECT_EQ(cap.lost_count(), 1u);
  EXPECT_EQ(cap.transmissions()[1].drop_cause, DropCause::bernoulli());
}

TEST(DirectionCaptureTest, EmptyCaptureIsSafe) {
  DirectionCapture cap;
  EXPECT_EQ(cap.sent_count(), 0u);
  EXPECT_DOUBLE_EQ(cap.loss_rate(), 0.0);
  EXPECT_EQ(cap.mean_transit(), util::Duration::zero());
}

TEST(FlowCaptureTest, UniqueSegmentsCountsDistinctDeliveries) {
  FlowCapture cap;
  cap.data.on_send(data(1, 5), TimePoint::from_ns(0));
  cap.data.on_deliver(data(1, 5), TimePoint::from_ns(0), TimePoint::from_ns(10));
  cap.data.on_send(data(2, 5), TimePoint::from_ns(20));  // duplicate delivery
  cap.data.on_deliver(data(2, 5), TimePoint::from_ns(20), TimePoint::from_ns(30));
  cap.data.on_send(data(3, 6), TimePoint::from_ns(40));
  cap.data.on_drop(data(3, 6), TimePoint::from_ns(40), DropCause::bernoulli());
  EXPECT_EQ(cap.unique_segments_delivered(), 1u);
}

TEST(FlowCaptureTest, SpanCoversBothDirections) {
  FlowCapture cap;
  cap.data.on_send(data(1, 1), TimePoint::from_ns(100));
  cap.data.on_deliver(data(1, 1), TimePoint::from_ns(100), TimePoint::from_ns(250));
  cap.acks.on_send(ack(2, 2), TimePoint::from_ns(300));
  cap.acks.on_deliver(ack(2, 2), TimePoint::from_ns(300), TimePoint::from_ns(500));
  EXPECT_EQ(cap.span(), util::Duration::nanos(400));
}

TEST(FlowCaptureTest, EstimatedRttSumsDirections) {
  FlowCapture cap;
  cap.data.on_send(data(1, 1), TimePoint::from_ns(0));
  cap.data.on_deliver(data(1, 1), TimePoint::from_ns(0), TimePoint::from_ns(1000));
  cap.acks.on_send(ack(2, 2), TimePoint::from_ns(1000));
  cap.acks.on_deliver(ack(2, 2), TimePoint::from_ns(1000), TimePoint::from_ns(1500));
  EXPECT_EQ(cap.estimated_rtt(), util::Duration::nanos(1500));
}

TEST(FlowCaptureTest, EmptySpanIsZero) {
  FlowCapture cap;
  EXPECT_EQ(cap.span(), util::Duration::zero());
  EXPECT_EQ(cap.unique_segments_delivered(), 0u);
}

std::vector<Transmission> sends_of(std::initializer_list<SeqNo> seqs) {
  DirectionCapture cap;
  std::uint64_t id = 1;
  for (const SeqNo seq : seqs) cap.on_send(data(id++, seq), TimePoint::zero());
  return cap.transmissions();
}

TEST(SeqSlotsTest, DenseSeqsMapToOffsetFromTheSmallest) {
  const SeqSlots slots(sends_of({7, 5, 6, 5, 9}));
  EXPECT_EQ(slots.size(), 5u);  // 5..9
  EXPECT_EQ(slots.slot_of(5), 0u);
  EXPECT_EQ(slots.slot_of(9), 4u);
  EXPECT_EQ(SeqSlots(sends_of({})).size(), 0u);
  EXPECT_EQ(SeqSlots(sends_of({~SeqNo{0}})).size(), 1u);
}

TEST(SeqSlotsTest, SpreadBeyondTheBoundUsesTheDistinctSeqTable) {
  // Three distinct seqs spread over 2^40: a dense table would need 2^40 slots.
  const SeqNo far = SeqNo{1} << 40;
  const SeqSlots slots(sends_of({far, 1, far, 0}));
  EXPECT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots.slot_of(0), 0u);
  EXPECT_EQ(slots.slot_of(1), 1u);
  EXPECT_EQ(slots.slot_of(far), 2u);
  // The full seq range never overflows the size.
  const SeqSlots ends(sends_of({0, ~SeqNo{0}}));
  EXPECT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends.slot_of(~SeqNo{0}), 1u);
  // At the bound (spread < kMaxDenseSpread * n) the table stays dense.
  const SeqSlots edge(sends_of({10, 10 + SeqSlots::kMaxDenseSpread * 2 - 1}));
  EXPECT_EQ(edge.size(), SeqSlots::kMaxDenseSpread * 2);
}

TEST(DirectionCaptureDeathTest, DropForUnseenPacketAborts) {
  DirectionCapture cap;
  EXPECT_DEATH(cap.on_drop(data(99, 1), TimePoint::zero(), DropCause::bernoulli()),
               "unseen");
}

TEST(DirectionCaptureDeathTest, DeliveryForUnseenPacketAborts) {
  DirectionCapture cap;
  cap.on_send(data(1, 1), TimePoint::zero());
  EXPECT_DEATH(cap.on_deliver(data(2, 2), TimePoint::zero(), TimePoint::from_ns(5)),
               "fate report for unseen packet");
}

TEST(DirectionCaptureDeathTest, SendWithNonIncreasingIdAborts) {
  DirectionCapture cap;
  cap.on_send(data(5, 1), TimePoint::zero());
  EXPECT_DEATH(cap.on_send(data(5, 2), TimePoint::zero()), "non-increasing packet id");
  EXPECT_DEATH(cap.on_send(data(4, 2), TimePoint::zero()), "non-increasing packet id");
}

TEST(DirectionCaptureDeathTest, DropOfAnOlderSendAborts) {
  // Link::send reports a drop right after its on_send, so a drop always
  // fates the newest record.
  DirectionCapture cap;
  cap.on_send(data(1, 1), TimePoint::zero());
  cap.on_send(data(2, 2), TimePoint::zero());
  EXPECT_DEATH(cap.on_drop(data(1, 1), TimePoint::zero(), DropCause::bernoulli()),
               "other than the newest send");
}

}  // namespace
}  // namespace hsr::trace
