// Shared TCP configuration and ground-truth event types.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.h"
#include "tcp/rto.h"
#include "util/inline_function.h"
#include "util/time.h"

namespace hsr::tcp {

using net::FlowId;
using net::SeqNo;
using util::Duration;
using util::TimePoint;

// Endpoint callback types: move-only small-buffer callables, matching
// sim::EventAction and net::Link::Receiver instead of std::function. Every
// production wiring (Connection, run_multi_flow, MPTCP subflows) captures at
// most two pointers, which the 48-byte inline buffer holds without touching
// the heap — static_asserted at each call site. An oversized capture
// (test-only convenience) degrades to ONE construction-time allocation,
// never a per-event one.
inline constexpr std::size_t kEndpointCallbackInlineBytes = 48;
// Transmits a packet toward the peer (usually bound to a Link's send()).
using PacketSendFn =
    util::InlineFunction<void(net::Packet), kEndpointCallbackInlineBytes>;
// Observes an RTO expiry (MPTCP's double-retransmission rescue hook).
using TimeoutFn = util::InlineFunction<void(SeqNo), kEndpointCallbackInlineBytes>;

// Congestion-control flavor. Reno is the paper's subject ("TCP Reno is the
// basis of the other TCP versions"); NewReno (RFC 6582 partial-ACK recovery)
// and Veno (loss differentiation for wireless paths, Fu et al.) are the
// §II-cited variants, provided for comparison studies.
enum class CongestionControl : std::uint8_t { kReno = 0, kNewReno = 1, kVeno = 2 };

// The protocol-level knobs of one TCP flow, independent of the path it runs
// over. Every surface that configures flows carries THIS struct instead of
// re-declaring the fields — workload::FlowRunConfig, the multi-flow
// scenario's per-sender specs and MPTCP subflow setup all share it, so a
// knob added here reaches all of them at once.
// make_tcp_config() expands the options into the stack-level TcpConfig.
struct TcpOptions {
  CongestionControl congestion_control = CongestionControl::kReno;
  bool enable_sack = false;        // selective acknowledgements (RFC 2018/6675)
  bool enable_frto = false;        // F-RTO spurious-timeout response
  bool adaptive_delack = false;    // TCP-DCA-style quick ACKs after reordering
  unsigned delayed_ack_b = 2;      // segments per cumulative ACK (b)
  Duration min_rto = Duration::millis(200);
  std::uint32_t mss_bytes = 1400;
};

struct TcpConfig {
  CongestionControl congestion_control = CongestionControl::kReno;

  std::uint32_t mss_bytes = 1400;
  std::uint32_t ack_bytes = 52;

  // Delayed acknowledgements: one ACK per `delayed_ack_b` in-order segments
  // (b in the model); 1 disables delaying. The delayed-ACK timer bounds how
  // long a single segment can wait.
  unsigned delayed_ack_b = 2;
  Duration delayed_ack_timeout = Duration::millis(150);

  // Receiver advertised window W_m, in segments.
  unsigned receiver_window = 64;

  // Selective acknowledgements (RFC 2018, simplified): the receiver reports
  // up to 3 out-of-order blocks; the sender keeps a scoreboard, retransmits
  // only the holes during fast recovery, and skips SACKed segments during
  // post-RTO go-back-N.
  bool enable_sack = false;

  // F-RTO (RFC 5682, SACK-less variant): after an RTO, probe with NEW data
  // instead of immediately going back to snd_una; if the next two ACKs both
  // advance, the timeout was spurious and the congestion state is restored.
  // Directly targets the paper's spurious-RTO pathology.
  bool enable_frto = false;

  // Adaptive delayed ACKs (TCP-DCA-inspired, §V-A future work): the
  // receiver drops to quick ACKs (every segment) for a while after any
  // reordering or duplicate — the loss-suspicious periods where ACKs are
  // "precious" — and batches b segments per ACK otherwise.
  bool adaptive_delack = false;
  unsigned quickack_segments = 16;  // quick-ACK budget armed per trigger

  // Congestion control.
  double initial_cwnd = 2.0;
  double initial_ssthresh = 1e9;  // effectively: slow start until first loss

  RtoConfig rto;

  // Amount of application data (segments); default: effectively infinite.
  std::uint64_t total_segments = UINT64_MAX;
};

// Expands shared protocol options into the stack-level TcpConfig, filling in
// the path-dependent advertised window. Everything TcpOptions does not cover
// keeps its TcpConfig default.
inline TcpConfig make_tcp_config(const TcpOptions& options, unsigned receiver_window) {
  TcpConfig t;
  t.congestion_control = options.congestion_control;
  t.enable_sack = options.enable_sack;
  t.enable_frto = options.enable_frto;
  t.adaptive_delack = options.adaptive_delack;
  t.delayed_ack_b = options.delayed_ack_b;
  t.mss_bytes = options.mss_bytes;
  t.rto.min_rto = options.min_rto;
  t.receiver_window = receiver_window;
  return t;
}

// Ground-truth sender events, logged by the stack itself. Used to validate
// the trace-analysis pipeline (which must reconstruct these from packet
// captures alone) and to drive the mechanism figures.
enum class SenderEventType : std::uint8_t {
  kTimeout,           // RTO fired
  kFastRetransmit,    // third duplicate ACK
  kRecoveryExit,      // snd_una advanced past the recovery point
  kSlowStartEntered,  // post-timeout slow start began
};

struct SenderEvent {
  TimePoint when;
  SenderEventType type;
  SeqNo seq = 0;          // segment concerned
  Duration rto_value;     // timer value (timeout events)
  unsigned backoff = 1;   // backoff multiplier at the event
};

struct SenderStats {
  std::uint64_t segments_sent = 0;          // including retransmissions
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t max_backoff_seen = 1;
};

struct ReceiverStats {
  std::uint64_t segments_received = 0;   // everything that arrived
  std::uint64_t unique_segments = 0;     // distinct payload delivered
  std::uint64_t duplicate_segments = 0;  // same payload seen again (spurious retx evidence)
  std::uint64_t acks_sent = 0;
  SeqNo highest_contiguous = 0;          // rcv_next - 1
};

const char* sender_event_name(SenderEventType t);

}  // namespace hsr::tcp
