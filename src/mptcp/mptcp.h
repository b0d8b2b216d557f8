// Multipath TCP over independent simulated paths (paper §V-B).
//
// Each subflow runs its own full TCP Reno instance (congestion control,
// RTO, fast retransmit) over its own pair of links. A connection-level
// ("meta") sequence space is striped across subflows:
//
//   * kDuplex — every subflow pulls the next unassigned meta segment
//     whenever its window opens (the paper's "transmit simultaneously on
//     all subflows" mode);
//   * kBackup — all data flows on the primary subflow; the backup subflow
//     idles, but when the primary suffers a retransmission timeout the lost
//     meta segment is ALSO sent on the backup ("double retransmission"),
//     which is precisely the q-reducing mechanism §V-B credits for MPTCP's
//     robustness on HSR.
//
// The receiver counts distinct meta segments delivered; goodput is measured
// at the meta level, so duplicates arriving on two subflows count once.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/link.h"
#include "sim/simulator.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"

namespace hsr::mptcp {

using net::SeqNo;

enum class Mode { kDuplex, kBackup };

struct MptcpConfig {
  Mode mode = Mode::kDuplex;
  tcp::TcpConfig subflow_tcp;

  // One-source-of-truth subflow setup: expands the shared protocol knobs
  // (the same tcp::TcpOptions carried by workload configs) into the subflow
  // stack config, so MPTCP subflows stay in lockstep with single-path TCP
  // flows.
  void set_subflow_options(const tcp::TcpOptions& options, unsigned receiver_window) {
    subflow_tcp = tcp::make_tcp_config(options, receiver_window);
  }
};

// Everything one subflow needs: link configs plus channel models.
struct PathSetup {
  net::LinkConfig downlink;
  net::LinkConfig uplink;
  std::unique_ptr<net::ChannelModel> down_channel;
  std::unique_ptr<net::ChannelModel> up_channel;
};

class MptcpConnection {
 public:
  // `flow_base` numbers the subflows flow_base, flow_base+1, ...
  MptcpConnection(sim::Simulator& sim, net::FlowId flow_base, MptcpConfig config,
                  std::vector<PathSetup> paths);

  void start();

  const tcp::TcpSender& subflow_sender(std::size_t i) const {
    return *subflows_.at(i)->sender;
  }
  const tcp::TcpReceiver& subflow_receiver(std::size_t i) const {
    return *subflows_.at(i)->receiver;
  }

  // Distinct meta segments that reached the receiver.
  std::uint64_t unique_meta_delivered() const { return meta_delivered_.size(); }
  // Meta-level goodput over [0, now], segments/second.
  double goodput_pps() const;
  double goodput_bps() const;

  // Rescue retransmissions sent on alternative subflows (backup mode).
  std::uint64_t rescue_transmissions() const { return rescue_transmissions_; }
  // Rescues whose meta segment had not yet been delivered when the rescue
  // was sent (i.e. potentially useful rescues).
  std::uint64_t useful_rescues() const { return useful_rescues_; }

 private:
  struct Subflow {
    std::uint8_t index = 0;
    net::Link downlink;
    net::Link uplink;
    std::unique_ptr<tcp::TcpReceiver> receiver;
    std::unique_ptr<tcp::TcpSender> sender;
    // subflow seq -> meta seq mapping, assigned at first transmission.
    std::map<SeqNo, SeqNo> meta_of;
    // Meta segments queued for this subflow ahead of fresh data (rescues).
    std::deque<SeqNo> pending_rescue;

    Subflow(sim::Simulator& sim, net::LinkConfig down_cfg, net::LinkConfig up_cfg)
        : downlink(sim, std::move(down_cfg)), uplink(sim, std::move(up_cfg)) {}
  };

  void on_subflow_transmit(Subflow& sf, net::Packet packet);
  void on_subflow_delivery(Subflow& sf, const net::Packet& packet);
  void on_subflow_timeout(Subflow& sf, SeqNo subflow_seq);

  sim::Simulator& sim_;
  MptcpConfig cfg_;
  std::vector<std::unique_ptr<Subflow>> subflows_;

  SeqNo next_meta_ = 1;
  std::set<SeqNo> meta_delivered_;
  std::uint64_t rescue_transmissions_ = 0;
  std::uint64_t useful_rescues_ = 0;
};

}  // namespace hsr::mptcp
