// Assembles one TCP connection: sender --downlink--> receiver and
// receiver --uplink--> sender, each link with its own channel model.
//
// This mirrors the paper's measurement setup: a server (sender) pushing bulk
// data to a phone (receiver) on the train; the downlink carries data, the
// uplink carries ACKs.
#pragma once

#include <memory>

#include "net/link.h"
#include "sim/simulator.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"

namespace hsr::tcp {

struct ConnectionConfig {
  TcpConfig tcp;
  net::LinkConfig downlink;
  net::LinkConfig uplink;
};

class Connection {
 public:
  // The taps are optional capture points (wireshark stand-ins; non-owning,
  // must outlive the connection).
  Connection(sim::Simulator& sim, FlowId flow, ConnectionConfig config,
             std::unique_ptr<net::ChannelModel> down_channel,
             std::unique_ptr<net::ChannelModel> up_channel,
             net::LinkTap* down_tap = nullptr, net::LinkTap* up_tap = nullptr);

  void start() { sender_.start(); }

  TcpSender& sender() { return sender_; }
  const TcpSender& sender() const { return sender_; }
  TcpReceiver& receiver() { return receiver_; }
  const TcpReceiver& receiver() const { return receiver_; }
  net::Link& downlink() { return downlink_; }
  net::Link& uplink() { return uplink_; }
  FlowId flow() const { return flow_; }

  // Application goodput in segments/second over [0, now].
  double goodput_segments_per_s() const;
  // Application goodput in bits/second over [0, now].
  double goodput_bps() const;

 private:
  sim::Simulator& sim_;
  FlowId flow_;
  ConnectionConfig cfg_;
  net::Link downlink_;
  net::Link uplink_;
  TcpReceiver receiver_;
  TcpSender sender_;
};

}  // namespace hsr::tcp
