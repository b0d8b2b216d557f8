#include "mptcp/mptcp.h"

#include "util/logging.h"

namespace hsr::mptcp {

MptcpConnection::MptcpConnection(sim::Simulator& sim, net::FlowId flow_base,
                                 MptcpConfig config, std::vector<PathSetup> paths)
    : sim_(sim), cfg_(config) {
  HSR_CHECK_MSG(paths.size() >= 2, "MPTCP needs at least two subflows");

  for (std::size_t i = 0; i < paths.size(); ++i) {
    auto sf = std::make_unique<Subflow>(sim, std::move(paths[i].downlink),
                                        std::move(paths[i].uplink));
    sf->index = static_cast<std::uint8_t>(i);
    subflows_.push_back(std::move(sf));
  }

  for (std::size_t i = 0; i < subflows_.size(); ++i) {
    Subflow& sf = *subflows_[i];
    const net::FlowId flow = flow_base + static_cast<net::FlowId>(i);

    tcp::TcpConfig sub_cfg = cfg_.subflow_tcp;
    // Backup mode: the backup subflow starts with no data of its own; it is
    // fed one segment per rescue.
    if (cfg_.mode == Mode::kBackup && i > 0) sub_cfg.total_segments = 0;

    // Subflow closures capture two pointers; assert they fit the endpoint
    // callback SBO so subflow setup never heap-allocates for its wiring.
    auto ack_tx = [&sf](net::Packet p) {
      p.subflow = sf.index;
      sf.uplink.send(std::move(p));
    };
    static_assert(tcp::PacketSendFn::holds_inline<decltype(ack_tx)>(),
                  "subflow ACK closure outgrew the PacketSendFn SBO");
    sf.receiver =
        std::make_unique<tcp::TcpReceiver>(sim_, sub_cfg, flow, std::move(ack_tx));

    auto data_tx = [this, &sf](net::Packet p) {
      on_subflow_transmit(sf, std::move(p));
    };
    static_assert(tcp::PacketSendFn::holds_inline<decltype(data_tx)>(),
                  "subflow data closure outgrew the PacketSendFn SBO");
    sf.sender =
        std::make_unique<tcp::TcpSender>(sim_, sub_cfg, flow, std::move(data_tx));

    auto timeout_cb = [this, &sf](SeqNo seq) { on_subflow_timeout(sf, seq); };
    static_assert(tcp::TimeoutFn::holds_inline<decltype(timeout_cb)>(),
                  "subflow timeout closure outgrew the TimeoutFn SBO");
    sf.sender->set_timeout_callback(std::move(timeout_cb));

    // The subflow's data packets and ACKs carry `flow`, its one endpoint on
    // each of its links.
    sf.downlink.register_endpoint(
        flow, std::move(paths[i].down_channel),
        [this, &sf](const net::Packet& p) { on_subflow_delivery(sf, p); });
    sf.uplink.register_endpoint(flow, std::move(paths[i].up_channel),
                                [&sf](const net::Packet& p) { sf.sender->on_ack(p); });
  }
}

void MptcpConnection::start() {
  for (auto& sf : subflows_) sf->sender->start();
}

void MptcpConnection::on_subflow_transmit(Subflow& sf, net::Packet packet) {
  packet.subflow = sf.index;
  // Assign the connection-level mapping at first transmission of each
  // subflow segment; retransmissions keep their original mapping.
  auto it = sf.meta_of.find(packet.seq);
  if (it == sf.meta_of.end()) {
    SeqNo meta;
    if (!sf.pending_rescue.empty()) {
      meta = sf.pending_rescue.front();
      sf.pending_rescue.pop_front();
    } else {
      meta = next_meta_++;
    }
    it = sf.meta_of.emplace(packet.seq, meta).first;
  }
  packet.meta_seq = it->second;
  sf.downlink.send(std::move(packet));
}

void MptcpConnection::on_subflow_delivery(Subflow& sf, const net::Packet& packet) {
  if (packet.meta_seq != 0) meta_delivered_.insert(packet.meta_seq);
  sf.receiver->on_data(packet);
}

void MptcpConnection::on_subflow_timeout(Subflow& sf, SeqNo subflow_seq) {
  if (cfg_.mode != Mode::kBackup) return;

  const auto it = sf.meta_of.find(subflow_seq);
  if (it == sf.meta_of.end()) return;
  const SeqNo meta = it->second;

  // Double retransmission: resend the timed-out meta segment on another
  // subflow. Pick the first subflow that is not the one that timed out.
  for (auto& other : subflows_) {
    if (other->index == sf.index) continue;
    ++rescue_transmissions_;
    if (!meta_delivered_.contains(meta)) ++useful_rescues_;
    other->pending_rescue.push_back(meta);
    other->sender->add_available_segments(1);
    break;
  }
}

double MptcpConnection::goodput_pps() const {
  const double elapsed = sim_.now().to_seconds();
  if (elapsed <= 0.0) return 0.0;
  return static_cast<double>(meta_delivered_.size()) / elapsed;
}

double MptcpConnection::goodput_bps() const {
  return goodput_pps() * static_cast<double>(cfg_.subflow_tcp.mss_bytes) * 8.0;
}

}  // namespace hsr::mptcp
