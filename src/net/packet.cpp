#include "net/packet.h"

namespace hsr::net {

namespace {
// Thread-local: ids only need to increase along each flow's sends, and a
// flow (or one simulator's set of subflows) runs entirely on one thread,
// so per-thread uniqueness suffices. Sharding parallel experiments across
// a pool therefore neither races here nor lets thread interleaving bleed
// into any analysis output.
thread_local std::uint64_t next_packet_id = 1;
}  // namespace

std::uint64_t allocate_packet_id() { return next_packet_id++; }

void reset_packet_ids() { next_packet_id = 1; }

}  // namespace hsr::net
