#include "net/packet.h"

#include <gtest/gtest.h>

namespace hsr::net {
namespace {

TEST(PacketTest, AllocateIdsAreUniqueAndIncreasing) {
  const std::uint64_t a = allocate_packet_id();
  const std::uint64_t b = allocate_packet_id();
  const std::uint64_t c = allocate_packet_id();
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(PacketTest, DefaultsAreSane) {
  Packet p;
  EXPECT_EQ(p.kind, PacketKind::kData);
  EXPECT_FALSE(p.is_retransmission);
  EXPECT_EQ(p.retx_count, 0u);
  EXPECT_EQ(p.subflow, 0);
  EXPECT_EQ(p.meta_seq, 0u);
}

}  // namespace
}  // namespace hsr::net
