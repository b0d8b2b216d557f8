// Binary columnar serialization of flow captures ("hsrtrace-b2").
//
// The text format (trace_io.h, "hsrtrace-v2") spends ~55 bytes per
// transmission on human-readable decimal; at the 10^5-10^6-flow campaign
// scale that text I/O — not the simulator — becomes the wall. hsrtrace-b2
// stores the same records as per-direction structure-of-arrays columns
// (ids, seqs, ack_next, sizes, retransmission counts, send times, fate
// tags, transit times, drop causes), each column delta- and varint-coded —
// and the near-constant columns (sizes, retransmission counts, fate tags)
// run-length coded on top — which makes archives several times smaller and
// much faster to write and read. A drop cause is coded as its category
// byte, one reserved byte that is always 0 (it held the depth of the
// retired composite-channel component path; the reader refuses any other
// value) and the directive plus one as a varint. The two formats are
// losslessly interconvertible: the binary reader rebuilds the exact
// FlowCapture the text writer would serialize, byte for byte (pinned by
// tests and `trace_query convert`). That holds for any packet ids, repeated
// ones included: both readers build each record with its own fate, by
// position, and never look a record up by id.
//
// hsrtrace-b2 is the only binary format; there is one writer and one
// reader. File layout:
//   header   12-byte magic "hsrtrace-b2\n", then u64 LE flow-frame count
//            (kUnknownFlowCount while a stream is still being appended to;
//            the merge step of the chunked corpus writer knows the real count)
//   frames   { u8 type, u32 LE crc32c, u64 LE seq, u64 LE payload size,
//              payload }
// where `seq` is the frame's 0-based ordinal in the file (every frame type
// counts) and the CRC-32C covers everything after the crc field — type,
// seq, size and payload — so corruption anywhere in a frame, including its
// length, is detected and NAMED (frame index + reason) instead of silently
// cascading.
// Frame types:
//   'F' one flow capture (columnar payload, see trace_binary.cpp)
//   'Q' one quarantine record: a flow that failed during generation, with
//       its diagnostic Status and per-direction fault-plan text, so a
//       partial corpus archive explains its own gaps.
// Unknown frame types are integrity-checked, then skipped (forward
// compatibility; chunk files use 'S' sidecar frames this way). A frame cut
// short by EOF is a torn tail — the signature of a truncated archive — and
// is dropped, with everything before it returned intact; the same tolerance
// the text reader applies to a torn final line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "trace/capture.h"
#include "util/fs.h"
#include "util/status.h"

namespace hsr::trace {

// 12 bytes on the wire (trailing NUL excluded).
inline constexpr char kBinaryTraceMagic[] = "hsrtrace-b2\n";
inline constexpr std::size_t kBinaryTraceMagicSize = 12;
inline constexpr std::uint64_t kUnknownFlowCount = ~std::uint64_t{0};

// A flow that was planned but never made it into the corpus: generation
// failed (exception, watchdog) and the campaign quarantined it. Archived in
// the corpus stream so the file is a complete record of the campaign.
struct QuarantineRecord {
  std::uint64_t flow_index = 0;
  std::string provider;
  std::string campaign;
  std::int32_t status_code = 0;  // util::StatusCode as an integer
  std::string message;
  // Portable "hsrfaultplan" text per direction (empty = no scripted faults).
  std::string downlink_plan;
  std::string uplink_plan;
};

void write_binary_trace_header(std::ostream& os, std::uint64_t flow_count);
// `seq` is the frame's 0-based ordinal in the destination file.
void write_flow_frame(std::ostream& os, const FlowCapture& capture, std::uint64_t seq);

// Encodes one frame (header + payload) into `out`, replacing its contents.
// Exposed so the chunked corpus writer can append pre-encoded frames and
// the merge step can re-stamp sequence numbers without re-encoding columns.
void encode_flow_frame(const FlowCapture& capture, std::uint64_t seq, std::string& out);
void encode_quarantine_frame(const QuarantineRecord& record, std::uint64_t seq,
                             std::string& out);
// A frame of an arbitrary type around an opaque payload (sidecar records).
void encode_raw_frame(char type, std::string_view payload, std::uint64_t seq,
                      std::string& out);

// Decodes a 'Q' frame's payload (as surfaced undecoded by next_raw or the
// chunk merge) back into a QuarantineRecord.
[[nodiscard]] util::Status decode_quarantine_frame_payload(const std::string& payload,
                                                           QuarantineRecord* record);

// Streaming reader: frames are decoded one at a time, so a million-flow
// corpus can be scanned in O(largest single flow) memory.
class BinaryTraceReader {
 public:
  explicit BinaryTraceReader(std::istream& is) : is_(is) {}

  // Validates the magic and reads the declared flow count. A failed read
  // (the stream's badbit) is kInternal "read failed", here and in next().
  [[nodiscard]] util::Status open();
  std::uint64_t declared_flow_count() const { return declared_flow_count_; }

  enum class Frame {
    kFlow,        // *flow was filled
    kQuarantine,  // *quarantine was filled
    kOther,       // next_raw only: a frame of an unrecognized type
    kEnd,         // clean end of stream
    kTorn,        // truncated trailing frame, dropped (terminal)
  };
  // Reads the next frame. Corruption inside a complete frame — a bad
  // CRC, an out-of-order sequence number, an implausible length, a payload
  // that fails to decode — is an error naming the frame's index; a frame
  // cut short by EOF is kTorn, after which only kTorn is returned again.
  [[nodiscard]] util::StatusOr<Frame> next(FlowCapture* flow, QuarantineRecord* quarantine);

  // Frame-level access for the merge/verify paths: same integrity checks as
  // next(), but the payload is returned undecoded and unknown frame types
  // are returned as kOther instead of being skipped.
  [[nodiscard]] util::StatusOr<Frame> next_raw(char* type, std::string* payload);

  std::uint64_t flows_read() const { return flows_read_; }
  std::uint64_t frames_read() const { return frames_read_; }

 private:
  // Reads one frame header + payload into type_/payload_ with integrity
  // checks; shares the kEnd/kTorn/error contract of next().
  util::StatusOr<Frame> read_frame();

  std::istream& is_;
  std::uint64_t declared_flow_count_ = kUnknownFlowCount;
  std::uint64_t frames_read_ = 0;
  std::uint64_t flows_read_ = 0;
  bool torn_ = false;
  char type_ = 0;
  std::string payload_;  // reused frame buffer
};

// Whole-file convenience result.
struct BinaryCorpus {
  std::vector<FlowCapture> flows;
  std::vector<QuarantineRecord> quarantined;
  std::uint64_t declared_flow_count = kUnknownFlowCount;
  bool torn_tail = false;  // a truncated final frame was dropped
};

[[nodiscard]] util::StatusOr<BinaryCorpus> read_binary_corpus(std::istream& is);

// Integrity check of a whole archive without materializing it: every frame
// header and payload is CRC- and sequence-verified, then decoded.
// The first bad frame fails the scan with its index and reason in the
// Status. A torn tail or a flow count short of the declared header count is
// NOT an error here — it is reported, so callers can distinguish "cleanly
// truncated" from "corrupt".
struct TraceVerifyReport {
  bool text = false;  // a text archive: fully parsed, no frames to check
  std::uint64_t frames = 0;  // complete, verified frames (all types)
  std::uint64_t flows = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t other_frames = 0;
  std::uint64_t declared_flow_count = kUnknownFlowCount;
  bool torn_tail = false;
  // True when every check passed, the tail is whole and the flow count
  // matches the header's declaration (when one was declared).
  bool intact = false;
};
[[nodiscard]] util::StatusOr<TraceVerifyReport> verify_trace_file(const std::string& path);

// Multi-capture archive: `captures` as consecutive flow frames behind one
// header (frame-per-flow, seq 0..n-1). This is how a shared-bottleneck
// scenario's N per-flow captures travel in ONE file; a sweep concatenates
// several scenarios' captures, each scenario starting at a capture with
// flow id 1 (the reader-side grouping key — see tools/fairness_sweep).
// Saving is atomic (write to `<path>.tmp`, fsync, then rename) through the
// util::Fs seam, matching save_flow_capture; a single capture is saved as a
// one-element archive.
void write_capture_archive(std::ostream& os, const std::vector<FlowCapture>& captures);
[[nodiscard]] util::Status save_capture_archive(util::Fs& fs, const std::string& path,
                                                const std::vector<FlowCapture>& captures);
[[nodiscard]] util::Status save_capture_archive(const std::string& path,
                                                const std::vector<FlowCapture>& captures);

// Returns true when the stream starts with the hsrtrace-b2 magic (the
// stream is rewound either way). Lets tools accept binary and text archives
// from one code path.
bool sniff_binary_trace(std::istream& is);

// Loads flow `nth` (0-based, counting flow frames only) from a trace file
// in EITHER format: binary corpora are scanned frame by frame; text
// archives hold exactly one flow, so any nth > 0 is out of range there.
[[nodiscard]] util::StatusOr<FlowCapture> load_flow_capture_any(const std::string& path,
                                                                std::uint64_t nth = 0);

}  // namespace hsr::trace
