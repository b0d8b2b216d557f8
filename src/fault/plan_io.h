// Portable text serialization of FaultPlans ("hsrfaultplan-v1" / "-v2").
//
// A plan file makes an archived experiment re-runnable: saved alongside a
// trace archive, it carries the exact scripted faults that shaped the
// capture, and feeding it back through FaultPlan::parse() reproduces the
// run bit-identically (scripted faults are deterministic by construction).
//
// v1 grammar — a header line, then ONE positional-token line per directive:
//   hsrfaultplan-v1 directives=<N>
//   <action> <kind> <win_begin_ns> <win_end_ns> <seq_min> <seq_max>
//       <retx> <max_triggers> <delay_ns> <copies> <label>
// (one line; wrapped here for width) where
//   action is 'X' (drop), 'L' (delay) or '2' (duplicate) — the same codes
//     the trace fault-audit lines use;
//   kind is '*' (any), 'D' (data) or 'A' (ack);
//   retx is 0 or 1 (only_retransmissions);
//   '*' stands in for the unbounded sentinel in win_end_ns / seq_max /
//     max_triggers (TimePoint::max(), SeqNo max, uint64 max respectively);
//   label is a single whitespace-free token (sanitized on write).
//
// v2 adds the experiment's link and TCP parameters so `trace_query replay`
// can rebuild the exact topology for ARBITRARY archived experiments (v1
// readers had to assume the fixed scripted-recipe config). Header and one
// optional parameter line, then the same directive lines as v1:
//   hsrfaultplan-v2 directives=<N> params=<0|1>
//   P <down_rate_bps> <down_delay_ns> <down_queue>
//     <up_rate_bps> <up_delay_ns> <up_queue>
//     <mss_bytes> <delayed_ack_b> <min_rto_ns> <receiver_window>
//     <sack> <frto> [<cc> <adaptive_delack>]
// (one line; rates are shortest-round-trip decimals, flags are 0/1, cc is
// the CongestionControl enum value). The trailing pair is OPTIONAL on read
// and written only when either knob differs from its default (Reno,
// non-adaptive) — plans that never touch them keep the legacy 12-field
// line byte-for-byte.
// Writers emit v1 when no params are attached — existing archives and
// golden files stay byte-identical — and v2 only when they are.
// Malformed input fails with the line number and offending token in the
// Status message, mirroring trace_io's positional diagnostics. Tokens,
// numbers and token-less lines follow the rule set every text format shares
// (util/text.h, DESIGN.md §6i).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "fault/fault.h"
#include "tcp/types.h"
#include "util/fs.h"
#include "util/status.h"

namespace hsr::fault {

// Everything needed to rebuild a flow's topology for replay: both links,
// the advertised window, and the flow's protocol knobs — the latter as the
// shared tcp::TcpOptions struct (the same one workload configs and MPTCP
// subflow setup carry), so a knob added there reaches plan files too.
struct ReplayParams {
  double down_rate_bps = 10e6;
  std::int64_t down_delay_ns = 0;
  std::uint64_t down_queue = 64;
  double up_rate_bps = 10e6;
  std::int64_t up_delay_ns = 0;
  std::uint64_t up_queue = 64;
  std::uint32_t receiver_window = 64;
  // Protocol knobs. A min_rto of ZERO means "not recorded" (the legacy
  // P-line default — replay keeps its own default then), hence the zeroed
  // initializer instead of TcpOptions' live 200 ms default.
  tcp::TcpOptions tcp = unrecorded_options();

  static tcp::TcpOptions unrecorded_options() {
    tcp::TcpOptions o;
    o.min_rto = util::Duration::zero();
    return o;
  }

  friend bool operator==(const ReplayParams&, const ReplayParams&) = default;
};

// A parsed plan file: the directives plus, for v2 files that carry them,
// the replay parameters.
struct PlanFile {
  FaultPlan plan;
  std::optional<ReplayParams> params;
};

// Writes v1 when `params` is absent (byte-identical to the legacy writer),
// v2 with a P line when present.
void write_fault_plan(std::ostream& os, const FaultPlan& plan);
void write_plan_file(std::ostream& os, const PlanFile& file);

// Reads either version. read_fault_plan is the legacy surface: it accepts
// v2 input too, discarding the parameter block.
[[nodiscard]] util::StatusOr<FaultPlan> read_fault_plan(std::istream& is);
[[nodiscard]] util::StatusOr<PlanFile> read_plan_file(std::istream& is);

// File wrappers. Saving is atomic (write to `<path>.tmp`, fsync, then rename
// into place) through the util::Fs seam, matching trace_io::save_flow_capture;
// the seamless overload uses util::Fs::real(). A PlanFile without params is
// written as v1, byte-identical to write_fault_plan.
[[nodiscard]] util::Status save_plan_file(util::Fs& fs, const std::string& path,
                                          const PlanFile& file);
[[nodiscard]] util::Status save_plan_file(const std::string& path, const PlanFile& file);
[[nodiscard]] util::StatusOr<PlanFile> load_plan_file(const std::string& path);

}  // namespace hsr::fault
