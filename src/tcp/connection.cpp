#include "tcp/connection.h"

#include "util/logging.h"

namespace hsr::tcp {

namespace {

// The endpoint closures capture one Link pointer each; assert they stay
// inside the callback SBO so wiring a connection never touches the heap
// (the endpoints in run_multi_flow carry the same guarantee).
PacketSendFn link_send_fn(net::Link& link) {
  auto fn = [&link](net::Packet p) { link.send(std::move(p)); };
  static_assert(PacketSendFn::holds_inline<decltype(fn)>(),
                "endpoint send closure outgrew the PacketSendFn SBO; "
                "endpoint construction would heap-allocate");
  return fn;
}

}  // namespace

Connection::Connection(sim::Simulator& sim, FlowId flow, ConnectionConfig config,
                       std::unique_ptr<net::ChannelModel> down_channel,
                       std::unique_ptr<net::ChannelModel> up_channel,
                       net::LinkTap* down_tap, net::LinkTap* up_tap)
    : sim_(sim),
      flow_(flow),
      cfg_(config),
      downlink_(sim, config.downlink),
      uplink_(sim, config.uplink),
      receiver_(sim, config.tcp, flow, link_send_fn(uplink_)),
      sender_(sim, config.tcp, flow, link_send_fn(downlink_)) {
  HSR_CHECK_MSG(cfg_.tcp.delayed_ack_b >= 1, "delayed_ack_b must be >= 1");
  downlink_.register_endpoint(
      flow, std::move(down_channel),
      [this](const net::Packet& p) { receiver_.on_data(p); }, down_tap);
  uplink_.register_endpoint(
      flow, std::move(up_channel), [this](const net::Packet& p) { sender_.on_ack(p); },
      up_tap);
}

double Connection::goodput_segments_per_s() const {
  const double elapsed = sim_.now().to_seconds();
  if (elapsed <= 0.0) return 0.0;
  const double goodput =
      static_cast<double>(receiver_.stats().unique_segments) / elapsed;
  // The receiver cannot deliver more unique data than the sender put on the
  // wire — a violation means the stats plumbing (every figure's input) broke.
  HSR_DCHECK_MSG(receiver_.stats().unique_segments <= sender_.stats().segments_sent,
                 "receiver delivered more unique segments than were sent");
  return goodput;
}

double Connection::goodput_bps() const {
  return goodput_segments_per_s() * static_cast<double>(cfg_.tcp.mss_bytes) * 8.0;
}

}  // namespace hsr::tcp
