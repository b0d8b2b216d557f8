#include "tcp/receiver.h"

#include <gtest/gtest.h>

#include <vector>

namespace hsr::tcp {
namespace {

class ReceiverFixture : public testing::Test {
 protected:
  TcpReceiver make_receiver(TcpConfig cfg) {
    return TcpReceiver(sim_, cfg, /*flow=*/1,
                       [this](net::Packet p) { acks_.push_back(std::move(p)); });
  }

  net::Packet data(SeqNo seq) {
    net::Packet p;
    p.id = net::allocate_packet_id();
    p.flow = 1;
    p.kind = net::PacketKind::kData;
    p.seq = seq;
    p.size_bytes = 1400;
    return p;
  }

  sim::Simulator sim_;
  std::vector<net::Packet> acks_;
};

TEST_F(ReceiverFixture, AcksEveryBSegments) {
  TcpConfig cfg;
  cfg.delayed_ack_b = 2;
  TcpReceiver rcv = make_receiver(cfg);
  rcv.on_data(data(1));
  EXPECT_TRUE(acks_.empty());  // waiting for the second segment
  rcv.on_data(data(2));
  ASSERT_EQ(acks_.size(), 1u);
  EXPECT_EQ(acks_[0].ack_next, 3u);
  EXPECT_EQ(acks_[0].kind, net::PacketKind::kAck);
}

TEST_F(ReceiverFixture, NoDelayWhenBIsOne) {
  TcpConfig cfg;
  cfg.delayed_ack_b = 1;
  TcpReceiver rcv = make_receiver(cfg);
  rcv.on_data(data(1));
  rcv.on_data(data(2));
  ASSERT_EQ(acks_.size(), 2u);
  EXPECT_EQ(acks_[0].ack_next, 2u);
  EXPECT_EQ(acks_[1].ack_next, 3u);
}

TEST_F(ReceiverFixture, DelackTimerFlushesLoneSegment) {
  TcpConfig cfg;
  cfg.delayed_ack_b = 2;
  cfg.delayed_ack_timeout = Duration::millis(100);
  TcpReceiver rcv = make_receiver(cfg);
  rcv.on_data(data(1));
  EXPECT_TRUE(acks_.empty());
  sim_.run_until(TimePoint::zero() + Duration::millis(150));
  ASSERT_EQ(acks_.size(), 1u);
  EXPECT_EQ(acks_[0].ack_next, 2u);
}

TEST_F(ReceiverFixture, OutOfOrderTriggersImmediateDuplicateAck) {
  TcpConfig cfg;
  cfg.delayed_ack_b = 2;
  TcpReceiver rcv = make_receiver(cfg);
  rcv.on_data(data(1));
  rcv.on_data(data(2));  // cumulative ACK 3
  acks_.clear();
  rcv.on_data(data(4));  // hole at 3
  rcv.on_data(data(5));
  ASSERT_EQ(acks_.size(), 2u);
  EXPECT_EQ(acks_[0].ack_next, 3u);  // duplicate ACKs for the hole
  EXPECT_EQ(acks_[1].ack_next, 3u);
}

TEST_F(ReceiverFixture, ReassemblyDrainsBufferedSegments) {
  TcpConfig cfg;
  cfg.delayed_ack_b = 1;
  TcpReceiver rcv = make_receiver(cfg);
  rcv.on_data(data(2));
  rcv.on_data(data(3));
  rcv.on_data(data(1));  // fills the hole; rcv_next jumps to 4
  EXPECT_EQ(rcv.rcv_next(), 4u);
  EXPECT_EQ(acks_.back().ack_next, 4u);
  EXPECT_EQ(rcv.stats().unique_segments, 3u);
}

TEST_F(ReceiverFixture, DuplicateBelowRcvNextCountsAndAcksImmediately) {
  TcpConfig cfg;
  cfg.delayed_ack_b = 1;
  TcpReceiver rcv = make_receiver(cfg);
  rcv.on_data(data(1));
  acks_.clear();
  rcv.on_data(data(1));  // spurious retransmission arrives
  EXPECT_EQ(rcv.stats().duplicate_segments, 1u);
  EXPECT_EQ(rcv.stats().unique_segments, 1u);
  ASSERT_EQ(acks_.size(), 1u);
  EXPECT_EQ(acks_[0].ack_next, 2u);
}

TEST_F(ReceiverFixture, DuplicateOfBufferedOutOfOrderSegment) {
  TcpConfig cfg;
  cfg.delayed_ack_b = 1;
  TcpReceiver rcv = make_receiver(cfg);
  rcv.on_data(data(5));  // buffered out of order
  rcv.on_data(data(5));  // duplicate of the buffered copy
  EXPECT_EQ(rcv.stats().duplicate_segments, 1u);
  EXPECT_EQ(rcv.stats().unique_segments, 1u);
}

TEST_F(ReceiverFixture, StatsTrackHighestContiguous) {
  TcpConfig cfg;
  cfg.delayed_ack_b = 1;
  TcpReceiver rcv = make_receiver(cfg);
  for (SeqNo s = 1; s <= 10; ++s) rcv.on_data(data(s));
  EXPECT_EQ(rcv.stats().highest_contiguous, 10u);
  EXPECT_EQ(rcv.stats().segments_received, 10u);
  EXPECT_EQ(rcv.stats().acks_sent, 10u);
}

TEST_F(ReceiverFixture, CumulativeAckAfterBDelayCoversBoth) {
  TcpConfig cfg;
  cfg.delayed_ack_b = 3;
  TcpReceiver rcv = make_receiver(cfg);
  rcv.on_data(data(1));
  rcv.on_data(data(2));
  EXPECT_TRUE(acks_.empty());
  rcv.on_data(data(3));
  ASSERT_EQ(acks_.size(), 1u);
  EXPECT_EQ(acks_[0].ack_next, 4u);
}

}  // namespace
}  // namespace hsr::tcp
