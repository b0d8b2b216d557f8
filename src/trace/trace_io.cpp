#include "trace/trace_io.h"

#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "util/text.h"

namespace hsr::trace {

namespace {

constexpr const char* kMagicV2 = "hsrtrace-v2";
constexpr const char* kMagicV1 = "hsrtrace-v1";
constexpr std::string_view kFormat = "trace";  // errors read "trace line N: ..."

using Tokens = std::vector<std::string_view>;

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

// Serializes the cause:  <code>[#<directive>]
std::string drop_token(const Transmission& tx) {
  if (!tx.drop_cause) return "-";
  std::string out(1, category_code(tx.drop_cause->category));
  if (tx.drop_cause->directive >= 0) {
    out += '#';
    out += std::to_string(tx.drop_cause->directive);
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

// --- Line parsing with positional diagnostics --------------------------------

// Parses a v2 drop token into an optional cause. v1 archives use the same
// single-character subset ('-', 'Q', 'C'), so one parser serves both: the
// version only gates which codes a WRITER may emit, and 'C' simply decodes
// to the legacy unattributed category.
bool parse_drop_token(std::string_view token, std::optional<net::DropCause>& out) {
  if (token == "-") {
    out.reset();
    return true;
  }
  net::DropCause cause;
  if (!category_from_code(token[0], cause.category)) return false;
  // Only `#<directive>` may follow the code.
  const std::string_view rest = token.substr(1);
  if (!rest.empty()) {
    if (rest[0] != '#' || !util::parse_number(rest.substr(1), cause.directive) ||
        cause.directive < 0) {
      return false;
    }
  }
  out = cause;
  return true;
}

// Parses one `D`/`A` transmission line into a record appended to `out`.
util::Status parse_transmission(const Tokens& tokens, std::size_t line_number,
                                std::vector<Transmission>& out) {
  const auto bad = [&](std::size_t i, std::string_view why) {
    return util::line_error(kFormat, line_number, tokens[i], why);
  };
  if (tokens.size() != 9) {
    return util::line_error(kFormat, line_number, tokens.back(),
                            "expected 9 fields, got " + std::to_string(tokens.size()));
  }
  CapturedHeader p;
  std::int64_t sent_ns = 0;
  std::int64_t arrived_ns = 0;
  if (!util::parse_number(tokens[1], p.id)) return bad(1, "bad packet id");
  if (!util::parse_number(tokens[2], p.seq)) return bad(2, "bad seq");
  if (!util::parse_number(tokens[3], p.ack_next)) return bad(3, "bad ack_next");
  if (!util::parse_number(tokens[4], p.size_bytes)) return bad(4, "bad size");
  if (!util::parse_number(tokens[5], sent_ns)) return bad(5, "bad sent time");
  if (!util::parse_number(tokens[6], arrived_ns)) return bad(6, "bad arrival time");
  std::optional<net::DropCause> cause;
  if (!parse_drop_token(tokens[7], cause)) return bad(7, "bad drop token");
  if (!util::parse_number(tokens[8], p.retx_count)) return bad(8, "bad retx count");

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

// True when `token` is exactly one of the characters in `allowed`.
bool is_code(std::string_view token, std::string_view allowed) {
  return token.size() == 1 && allowed.find(token[0]) != std::string_view::npos;
}

// Parses one `F` fault-audit line.
util::Status parse_fault(const Tokens& tokens, std::size_t line_number,
                         FlowCapture& cap) {
  const auto bad = [&](std::size_t i, std::string_view why) {
    return util::line_error(kFormat, line_number, tokens[i], why);
  };
  if (tokens.size() != 10) {
    return util::line_error(kFormat, line_number, tokens.back(),
                            "expected 10 fields, got " + std::to_string(tokens.size()));
  }
  FaultRecord rec;
  std::int64_t when_ns = 0;
  std::int64_t delay_ns = 0;
  if (!is_code(tokens[1], "DA")) return bad(1, "bad fault direction");
  rec.direction = tokens[1][0];
  if (!util::parse_number(tokens[2], when_ns)) return bad(2, "bad time");
  if (!util::parse_number(tokens[3], rec.packet_id)) return bad(3, "bad packet id");
  if (!util::parse_number(tokens[4], rec.seq)) return bad(4, "bad seq");
  if (!is_code(tokens[5], "DA")) return bad(5, "bad packet kind");
  rec.kind = tokens[5][0] == 'D' ? net::PacketKind::kData : net::PacketKind::kAck;
  if (!util::parse_number(tokens[6], rec.directive)) return bad(6, "bad directive index");
  if (!is_code(tokens[7], "XL2")) return bad(7, "bad fault action");
  rec.action = tokens[7][0];
  if (!util::parse_number(tokens[8], delay_ns)) return bad(8, "bad fault delay");
  rec.label = tokens[9];
  rec.when = TimePoint::from_ns(when_ns);
  rec.delay = Duration::nanos(delay_ns);
  cap.faults.push_back(std::move(rec));
  return util::Status::ok();
}

util::StatusOr<FlowCapture> parse_flow_capture(std::string_view text) {
  util::LineReader lines(text);
  if (!lines.next()) {
    return util::Status::invalid_argument("trace line 1: empty stream, no header");
  }
  const Tokens& header = lines.tokens();
  const std::size_t header_line = lines.line_number();
  if (header.size() < 2 || (header[0] != kMagicV2 && header[0] != kMagicV1) ||
      !header[1].starts_with("flow=")) {
    return util::line_error(kFormat, header_line, lines.line(), "bad trace header");
  }
  FlowCapture cap;
  if (!util::parse_number(header[1].substr(5), cap.flow)) {
    return util::line_error(kFormat, header_line, header[1], "bad flow id");
  }
  std::vector<Transmission> data;
  std::vector<Transmission> acks;
  while (lines.next()) {
    const Tokens& tokens = lines.tokens();
    const std::size_t line_number = lines.line_number();
    util::Status status;
    if (tokens[0] == "D" || tokens[0] == "A") {
      status = parse_transmission(tokens, line_number, tokens[0] == "D" ? data : acks);
    } else if (tokens[0] == "F") {
      status = parse_fault(tokens, line_number, cap);
    } else {
      status = util::line_error(kFormat, line_number, tokens[0], "unknown record type");
    }
    if (!status.is_ok()) {
      // Truncation-tolerant read: drop a torn final line (no newline before
      // EOF: a killed writer or a torn copy) and return the records parsed
      // so far, so a partial archive stays analyzable instead of poisoning
      // re-analysis of the whole corpus.
      if (lines.unterminated()) break;
      return status;
    }
  }
  cap.data = DirectionCapture(std::move(data));
  cap.acks = DirectionCapture(std::move(acks));
  return cap;
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
       << util::single_token(f.label, "fault") << '\n';
  }
}

util::StatusOr<FlowCapture> read_flow_capture(std::istream& is) {
  auto text = util::read_all(is);
  if (!text.is_ok()) return text.status();
  return parse_flow_capture(text.value());
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
  auto text = util::read_text_file(path);
  if (!text.is_ok()) return text.status();
  return parse_flow_capture(text.value());
}

}  // namespace hsr::trace
