// The packet record exchanged between TCP endpoints over simulated links.
//
// The stack is packet-granular: data segments are numbered in units of one
// MSS (as in the Padhye model), and ACKs carry the cumulative
// next-expected-segment number.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "util/time.h"

namespace hsr::net {

using util::Duration;
using util::TimePoint;

enum class PacketKind : std::uint8_t { kData = 0, kAck = 1 };

using FlowId = std::uint32_t;
using SeqNo = std::uint64_t;  // 1-based segment number

struct Packet {
  // Globally unique per simulation run; assigned by the sender.
  std::uint64_t id = 0;
  FlowId flow = 0;
  PacketKind kind = PacketKind::kData;

  // kData: the segment number carried.
  // kAck : cumulative ACK — all segments < ack_next received in order.
  SeqNo seq = 0;
  SeqNo ack_next = 0;

  std::uint32_t size_bytes = 0;
  TimePoint sent_at;

  // Retransmission bookkeeping (ground truth used to validate the
  // trace-analysis pipeline, which must not peek at these fields).
  bool is_retransmission = false;
  std::uint32_t retx_count = 0;

  // Multipath: which subflow the packet traveled on, and the
  // connection-level sequence the subflow segment maps to (0 = none).
  std::uint8_t subflow = 0;
  SeqNo meta_seq = 0;

  // SACK option (ACKs only): up to 3 blocks of segments received above the
  // cumulative point, as half-open ranges [first, last).
  static constexpr std::size_t kMaxSackBlocks = 3;
  std::array<std::pair<SeqNo, SeqNo>, kMaxSackBlocks> sack{};
  std::uint8_t sack_count = 0;
};

// Thread-local unique packet id source. Ids are archived data; a live capture
// checks fates against them, so they must increase along one flow's sends.
// Uniqueness per thread is all that is required, since a simulation run
// never spans threads. Keeping the counter thread-local lets experiment
// shards run in parallel without races or cross-shard id coupling.
std::uint64_t allocate_packet_id();

// Rewinds this thread's counter to 1. Call at the start of each independent
// simulation so ids — and therefore serialized captures — depend only on the
// flow's own history, not on which flows this thread ran before (the
// byte-identical-capture contract across thread counts and repeat runs).
void reset_packet_ids();

}  // namespace hsr::net
