// Text serialization of flow captures, so traces can be archived, diffed and
// re-analyzed offline (the role pcap files played in the paper's workflow).
//
// Format v2 ("hsrtrace-v2"): a header line, then one line per transmission:
//   <dir> <pkt_id> <seq> <ack_next> <size> <sent_ns> <arrived_ns|-1> <drop> <retx>
// where dir is D (data) or A (ack) and drop is a cause token:
//   '-'                    no fate recorded (in flight at capture end)
//   <code>[#<directive>]   a cause-coded drop
// with code one of
//   'Q' queue overflow,          'C' channel loss, cause unattributed (v1),
//   'B' Bernoulli loss,          'g' Gilbert–Elliott loss in GOOD state,
//   'G' Gilbert–Elliott loss in BAD state,
//   'R' functional radio loss,   'X' scripted fault,
// and `#<directive>` the index of the scripted FaultPlan directive, present
// only when one fired. Nothing else may follow the code: the `@<component>`
// suffix of retired composite-channel attribution is refused. Lost packets
// have arrived_ns = -1 (exactly the convention of the paper's Fig. 1).
// Scripted-fault audit records follow as `F` lines:
//   F <link-dir> <when_ns> <pkt_id> <seq> <kind> <directive> <action> <delay_ns> <label>
//
// Readers also accept v1 archives ("hsrtrace-v1"), whose drop column only
// distinguished 'Q' (queue) from 'C' (channel): 'C' maps to the
// kChannelUnattributed legacy category.
//
// Tokens, numbers, token-less lines and the torn final line follow the rule
// set every text format shares (util/text.h, DESIGN.md §6i): fields split at
// the six blank bytes, every number must parse whole, and lines with no
// token are skipped.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/capture.h"
#include "util/fs.h"
#include "util/status.h"

namespace hsr::trace {

void write_flow_capture(std::ostream& os, const FlowCapture& capture);

// Parses a capture (v2 or legacy v1), reading the whole stream first.
// Corrupt records fail with the line number and the offending token in the
// Status message. A torn FINAL line (EOF before its newline — the signature
// of a truncated archive) is tolerated: the partial record is dropped and
// the capture parsed so far is returned.
[[nodiscard]] util::StatusOr<FlowCapture> read_flow_capture(std::istream& is);

// Convenience file wrappers. Saving is atomic (write to `<path>.tmp`, fsync,
// then rename into place) through the util::Fs seam, so a killed run never
// leaves a half-written archive under the real name and crash-safety tests
// can script the I/O. The seamless overload uses util::Fs::real().
[[nodiscard]] util::Status save_flow_capture(util::Fs& fs, const std::string& path,
                                             const FlowCapture& capture);
[[nodiscard]] util::Status save_flow_capture(const std::string& path, const FlowCapture& capture);
[[nodiscard]] util::StatusOr<FlowCapture> load_flow_capture(const std::string& path);

}  // namespace hsr::trace
