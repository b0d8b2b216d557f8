#include "trace/trace_io.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace hsr::trace {

namespace {

constexpr const char* kMagicV2 = "hsrtrace-v2";
constexpr const char* kMagicV1 = "hsrtrace-v1";

using net::DropCategory;

// Single-character cause codes for the drop column (see trace_io.h).
char category_code(DropCategory category) {
  switch (category) {
    case DropCategory::kUnknown: return '-';
    case DropCategory::kQueueOverflow: return 'Q';
    case DropCategory::kChannelUnattributed: return 'C';
    case DropCategory::kBernoulli: return 'B';
    case DropCategory::kGilbertElliottGood: return 'g';
    case DropCategory::kGilbertElliottBad: return 'G';
    case DropCategory::kFunctionalRadio: return 'R';
    case DropCategory::kScriptedFault: return 'X';
  }
  return '-';
}

bool category_from_code(char code, DropCategory& out) {
  switch (code) {
    case 'Q': out = DropCategory::kQueueOverflow; return true;
    case 'C': out = DropCategory::kChannelUnattributed; return true;
    case 'B': out = DropCategory::kBernoulli; return true;
    case 'g': out = DropCategory::kGilbertElliottGood; return true;
    case 'G': out = DropCategory::kGilbertElliottBad; return true;
    case 'R': out = DropCategory::kFunctionalRadio; return true;
    case 'X': out = DropCategory::kScriptedFault; return true;
    default: return false;
  }
}

// Serializes the structured cause:  <code>[@<component-path>][#<directive>]
// The component path is dotted outermost-first ("1.0"); an unnested drop
// writes a single index ("1"), byte-identical to the pre-path flat schema.
std::string drop_token(const Transmission& tx) {
  if (!tx.drop_cause) return "-";
  std::string out(1, category_code(tx.drop_cause->category));
  if (tx.drop_cause->has_component()) {
    out += '@';
    out += tx.drop_cause->component_path_string();
  }
  if (tx.drop_cause->directive >= 0) {
    out += '#';
    out += std::to_string(tx.drop_cause->directive);
  }
  return out;
}

// Audit labels are single tokens on the wire; whitespace would shift every
// following field, so it is replaced at serialization time.
std::string sanitize_label(const std::string& label) {
  std::string out = label.empty() ? "fault" : label;
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

void write_direction(std::ostream& os, char dir, const DirectionCapture& cap) {
  for (const auto& tx : cap.transmissions()) {
    os << dir << ' ' << tx.packet.id << ' ' << tx.packet.seq << ' '
       << tx.packet.ack_next << ' ' << tx.packet.size_bytes << ' '
       << tx.sent.ns() << ' ' << (tx.arrived ? tx.arrived->ns() : -1) << ' '
       << drop_token(tx) << ' ' << tx.packet.retx_count << '\n';
  }
}

// --- Tokenized line parsing with positional diagnostics ----------------------

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream ls(line);
  std::string tok;
  while (ls >> tok) tokens.push_back(tok);
  return tokens;
}

// Parses a full-token integer; false on any trailing garbage ("12x") or
// overflow, so bit-flips inside numeric fields are caught, not truncated.
template <typename Int>
bool parse_int(const std::string& token, Int& out) {
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

util::Status line_error(std::size_t line_number, const std::string& token,
                        const std::string& why) {
  return util::Status::invalid_argument(
      "trace line " + std::to_string(line_number) + ": " + why + " (token '" +
      token + "')");
}

// Parses a v2 drop token into an optional cause. v1 archives use the same
// single-character subset ('-', 'Q', 'C'), so one parser serves both: the
// version only gates which codes a WRITER may emit, and 'C' simply decodes
// to the legacy unattributed category.
bool parse_drop_token(const std::string& token, std::optional<net::DropCause>& out) {
  if (token.empty()) return false;
  if (token == "-") {
    out.reset();
    return true;
  }
  net::DropCause cause;
  if (!category_from_code(token[0], cause.category)) return false;
  std::size_t pos = 1;
  if (pos < token.size() && token[pos] == '@') {
    const std::size_t end = token.find('#', pos + 1);
    const std::string field =
        token.substr(pos + 1, end == std::string::npos ? std::string::npos
                                                       : end - pos - 1);
    // Dotted outermost-first component path ("1.0"). Archives written before
    // nesting support carry a single index — the same spelling as a depth-1
    // path — so one parser reads both generations.
    std::size_t start = 0;
    while (true) {
      const std::size_t dot = field.find('.', start);
      const std::string element =
          field.substr(start, dot == std::string::npos ? std::string::npos
                                                       : dot - start);
      std::int16_t index = -1;
      if (!parse_int(element, index) || index < 0) return false;
      if (cause.component_depth >= net::DropCause::kMaxComponentDepth) return false;
      cause.component_path[cause.component_depth++] = index;
      if (dot == std::string::npos) break;
      start = dot + 1;
    }
    pos = (end == std::string::npos) ? token.size() : end;
  }
  if (pos < token.size() && token[pos] == '#') {
    if (!parse_int(token.substr(pos + 1), cause.directive) || cause.directive < 0) {
      return false;
    }
    pos = token.size();
  }
  if (pos != token.size()) return false;
  out = cause;
  return true;
}

// Parses one `D`/`A` transmission line into a record appended to `out`.
util::Status parse_transmission(const std::vector<std::string>& tokens,
                                std::size_t line_number, std::vector<Transmission>& out) {
  if (tokens.size() != 9) {
    return line_error(line_number, tokens.empty() ? "" : tokens.back(),
                      "expected 9 fields, got " + std::to_string(tokens.size()));
  }
  CapturedHeader p;
  std::int64_t sent_ns = 0;
  std::int64_t arrived_ns = 0;
  if (!parse_int(tokens[1], p.id)) return line_error(line_number, tokens[1], "bad packet id");
  if (!parse_int(tokens[2], p.seq)) return line_error(line_number, tokens[2], "bad seq");
  if (!parse_int(tokens[3], p.ack_next)) {
    return line_error(line_number, tokens[3], "bad ack_next");
  }
  if (!parse_int(tokens[4], p.size_bytes)) {
    return line_error(line_number, tokens[4], "bad size");
  }
  if (!parse_int(tokens[5], sent_ns)) {
    return line_error(line_number, tokens[5], "bad sent time");
  }
  if (!parse_int(tokens[6], arrived_ns)) {
    return line_error(line_number, tokens[6], "bad arrival time");
  }
  std::optional<net::DropCause> cause;
  if (!parse_drop_token(tokens[7], cause)) {
    return line_error(line_number, tokens[7], "bad drop token");
  }
  if (!parse_int(tokens[8], p.retx_count)) {
    return line_error(line_number, tokens[8], "bad retx count");
  }

  Transmission& tx = out.emplace_back();
  tx.packet = p;
  tx.sent = TimePoint::from_ns(sent_ns);
  if (arrived_ns >= 0) {
    tx.arrived = TimePoint::from_ns(arrived_ns);
  } else {
    // A lost packet keeps its cause; drop == '-' leaves none: the packet was
    // still in flight when the capture ended, neither delivered nor lost.
    tx.drop_cause = cause;
  }
  return util::Status::ok();
}

// Parses one `F` fault-audit line.
util::Status parse_fault(const std::vector<std::string>& tokens,
                         std::size_t line_number, FlowCapture& cap) {
  if (tokens.size() != 10) {
    return line_error(line_number, tokens.empty() ? "" : tokens.back(),
                      "expected 10 fields, got " + std::to_string(tokens.size()));
  }
  FaultRecord rec;
  std::int64_t when_ns = 0;
  std::int64_t delay_ns = 0;
  if (tokens[1].size() != 1 || (tokens[1][0] != 'D' && tokens[1][0] != 'A')) {
    return line_error(line_number, tokens[1], "bad fault direction");
  }
  rec.direction = tokens[1][0];
  if (!parse_int(tokens[2], when_ns)) return line_error(line_number, tokens[2], "bad time");
  if (!parse_int(tokens[3], rec.packet_id)) {
    return line_error(line_number, tokens[3], "bad packet id");
  }
  if (!parse_int(tokens[4], rec.seq)) return line_error(line_number, tokens[4], "bad seq");
  if (tokens[5].size() != 1 || (tokens[5][0] != 'D' && tokens[5][0] != 'A')) {
    return line_error(line_number, tokens[5], "bad packet kind");
  }
  rec.kind = tokens[5][0] == 'D' ? net::PacketKind::kData : net::PacketKind::kAck;
  if (!parse_int(tokens[6], rec.directive)) {
    return line_error(line_number, tokens[6], "bad directive index");
  }
  if (tokens[7].size() != 1 ||
      (tokens[7][0] != 'X' && tokens[7][0] != 'L' && tokens[7][0] != '2')) {
    return line_error(line_number, tokens[7], "bad fault action");
  }
  rec.action = tokens[7][0];
  if (!parse_int(tokens[8], delay_ns)) {
    return line_error(line_number, tokens[8], "bad fault delay");
  }
  rec.label = tokens[9];
  rec.when = TimePoint::from_ns(when_ns);
  rec.delay = Duration::nanos(delay_ns);
  cap.faults.push_back(std::move(rec));
  return util::Status::ok();
}

}  // namespace

void write_flow_capture(std::ostream& os, const FlowCapture& capture) {
  os << kMagicV2 << " flow=" << capture.flow << '\n';
  write_direction(os, 'D', capture.data);
  write_direction(os, 'A', capture.acks);
  // Fault audit trail, after the transmissions:
  //   F <link-dir> <when_ns> <pkt_id> <seq> <kind> <directive> <action> <delay_ns> <label>
  // where action is 'X' (drop), 'L' (delay) or '2' (duplicate).
  for (const auto& f : capture.faults) {
    os << "F " << f.direction << ' ' << f.when.ns() << ' ' << f.packet_id << ' '
       << f.seq << ' ' << (f.kind == net::PacketKind::kData ? 'D' : 'A') << ' '
       << f.directive << ' ' << f.action << ' ' << f.delay.ns() << ' '
       << sanitize_label(f.label) << '\n';
  }
}

util::StatusOr<FlowCapture> read_flow_capture(std::istream& is) {
  std::string line;
  std::size_t line_number = 1;
  if (!std::getline(is, line)) {
    return util::Status::invalid_argument("trace line 1: empty stream, no header");
  }
  {
    std::istringstream hs(line);
    std::string magic;
    std::string flow_field;
    if (!(hs >> magic >> flow_field) || (magic != kMagicV2 && magic != kMagicV1) ||
        flow_field.rfind("flow=", 0) != 0) {
      return line_error(1, line, "bad trace header");
    }
    net::FlowId flow = 0;
    if (!parse_int(flow_field.substr(5), flow)) {
      return line_error(1, flow_field, "bad flow id");
    }
    FlowCapture cap;
    cap.flow = flow;
    std::vector<Transmission> data;
    std::vector<Transmission> acks;

    while (std::getline(is, line)) {
      ++line_number;
      // A line that hit EOF before its newline is an unterminated tail —
      // the signature of a truncated archive (killed writer, torn copy).
      const bool unterminated = is.eof();
      if (line.empty()) continue;

      const std::vector<std::string> tokens = split_tokens(line);
      util::Status status = util::Status::ok();
      if (tokens[0] == "D" || tokens[0] == "A") {
        status = parse_transmission(tokens, line_number, tokens[0] == "D" ? data : acks);
      } else if (tokens[0] == "F") {
        status = parse_fault(tokens, line_number, cap);
      } else {
        status = line_error(line_number, tokens[0], "unknown record type");
      }
      if (!status.is_ok()) {
        if (unterminated) {
          // Truncation-tolerant read: drop the torn final line and return
          // the records parsed so far, so a partial archive stays analyzable
          // instead of poisoning re-analysis of the whole corpus.
          break;
        }
        return status;
      }
    }
    cap.data = DirectionCapture(std::move(data));
    cap.acks = DirectionCapture(std::move(acks));
    return cap;
  }
}

util::Status save_flow_capture(util::Fs& fs, const std::string& path,
                               const FlowCapture& capture) {
  // Serialize in memory, then hand the bytes to the atomic-write helper:
  // tmp + fsync + rename through the seam, so a killed run leaves either the
  // old archive or the complete new one — never a half-written file under
  // the real name.
  std::ostringstream content;
  write_flow_capture(content, capture);
  return util::write_file_atomic(fs, path, content.str());
}

util::Status save_flow_capture(const std::string& path, const FlowCapture& capture) {
  return save_flow_capture(util::Fs::real(), path, capture);
}

util::StatusOr<FlowCapture> load_flow_capture(const std::string& path) {
  std::ifstream f(path);
  if (!f) return util::Status::not_found("cannot open: " + path);
  return read_flow_capture(f);
}

}  // namespace hsr::trace
