#include "fault/plan_io.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "util/format.h"

namespace hsr::fault {

namespace {

constexpr const char* kMagic = "hsrfaultplan-v1";
constexpr const char* kMagicV2 = "hsrfaultplan-v2";

constexpr std::uint64_t kNoTriggerLimit = std::numeric_limits<std::uint64_t>::max();
constexpr SeqNo kNoSeqLimit = std::numeric_limits<SeqNo>::max();

char kind_code(FaultDirective::KindFilter kind) {
  switch (kind) {
    case FaultDirective::KindFilter::kAny: return '*';
    case FaultDirective::KindFilter::kData: return 'D';
    case FaultDirective::KindFilter::kAck: return 'A';
  }
  return '?';
}

// Labels are single tokens on the wire (same rule as trace_io audit labels).
std::string sanitize_label(const std::string& label) {
  std::string out = label.empty() ? "fault" : label;
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream ls(line);
  std::string tok;
  while (ls >> tok) tokens.push_back(tok);
  return tokens;
}

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
      "plan line " + std::to_string(line_number) + ": " + why + " (token '" +
      token + "')");
}

bool parse_double(const std::string& token, double& out) {
  const auto res = std::from_chars(token.data(), token.data() + token.size(), out);
  return res.ec == std::errc() && res.ptr == token.data() + token.size();
}

util::Status parse_params_line(const std::vector<std::string>& tokens,
                               std::size_t line_number, ReplayParams& p) {
  // 12 mandatory fields; plans recording a non-default congestion control
  // or adaptive delayed-ACK append the optional <cc> <adaptive> pair.
  if ((tokens.size() != 13 && tokens.size() != 15) || tokens[0] != "P") {
    return line_error(line_number, tokens.empty() ? "" : tokens[0],
                      "expected P line with 12 parameter fields");
  }
  if (!parse_double(tokens[1], p.down_rate_bps) || p.down_rate_bps <= 0) {
    return line_error(line_number, tokens[1], "bad downlink rate");
  }
  if (!parse_int(tokens[2], p.down_delay_ns) || p.down_delay_ns < 0) {
    return line_error(line_number, tokens[2], "bad downlink delay");
  }
  if (!parse_int(tokens[3], p.down_queue) || p.down_queue == 0) {
    return line_error(line_number, tokens[3], "bad downlink queue capacity");
  }
  if (!parse_double(tokens[4], p.up_rate_bps) || p.up_rate_bps <= 0) {
    return line_error(line_number, tokens[4], "bad uplink rate");
  }
  if (!parse_int(tokens[5], p.up_delay_ns) || p.up_delay_ns < 0) {
    return line_error(line_number, tokens[5], "bad uplink delay");
  }
  if (!parse_int(tokens[6], p.up_queue) || p.up_queue == 0) {
    return line_error(line_number, tokens[6], "bad uplink queue capacity");
  }
  if (!parse_int(tokens[7], p.tcp.mss_bytes) || p.tcp.mss_bytes == 0) {
    return line_error(line_number, tokens[7], "bad mss");
  }
  if (!parse_int(tokens[8], p.tcp.delayed_ack_b) || p.tcp.delayed_ack_b == 0) {
    return line_error(line_number, tokens[8], "bad delayed-ack b");
  }
  std::int64_t min_rto_ns = 0;
  if (!parse_int(tokens[9], min_rto_ns) || min_rto_ns < 0) {
    return line_error(line_number, tokens[9], "bad min rto");
  }
  p.tcp.min_rto = Duration::nanos(min_rto_ns);
  if (!parse_int(tokens[10], p.receiver_window) || p.receiver_window == 0) {
    return line_error(line_number, tokens[10], "bad receiver window");
  }
  if (tokens[11] != "0" && tokens[11] != "1") {
    return line_error(line_number, tokens[11], "bad sack flag");
  }
  p.tcp.enable_sack = tokens[11] == "1";
  if (tokens[12] != "0" && tokens[12] != "1") {
    return line_error(line_number, tokens[12], "bad frto flag");
  }
  p.tcp.enable_frto = tokens[12] == "1";
  if (tokens.size() == 15) {
    unsigned cc = 0;
    if (!parse_int(tokens[13], cc) ||
        cc > static_cast<unsigned>(tcp::CongestionControl::kVeno)) {
      return line_error(line_number, tokens[13], "bad congestion control code");
    }
    p.tcp.congestion_control = static_cast<tcp::CongestionControl>(cc);
    if (tokens[14] != "0" && tokens[14] != "1") {
      return line_error(line_number, tokens[14], "bad adaptive delack flag");
    }
    p.tcp.adaptive_delack = tokens[14] == "1";
  }
  return util::Status::ok();
}

util::Status parse_directive(const std::vector<std::string>& tokens,
                             std::size_t line_number, FaultDirective& d) {
  if (tokens.size() != 11) {
    return line_error(line_number, tokens.empty() ? "" : tokens.back(),
                      "expected 11 fields, got " + std::to_string(tokens.size()));
  }

  if (tokens[0] == "X") {
    d.action = FaultAction::kDrop;
  } else if (tokens[0] == "L") {
    d.action = FaultAction::kDelay;
  } else if (tokens[0] == "2") {
    d.action = FaultAction::kDuplicate;
  } else {
    return line_error(line_number, tokens[0], "bad action code");
  }

  if (tokens[1] == "*") {
    d.kind = FaultDirective::KindFilter::kAny;
  } else if (tokens[1] == "D") {
    d.kind = FaultDirective::KindFilter::kData;
  } else if (tokens[1] == "A") {
    d.kind = FaultDirective::KindFilter::kAck;
  } else {
    return line_error(line_number, tokens[1], "bad kind filter");
  }

  std::int64_t begin_ns = 0;
  if (!parse_int(tokens[2], begin_ns)) {
    return line_error(line_number, tokens[2], "bad window begin");
  }
  d.window_begin = TimePoint::from_ns(begin_ns);

  if (tokens[3] == "*") {
    d.window_end = TimePoint::max();
  } else {
    std::int64_t end_ns = 0;
    if (!parse_int(tokens[3], end_ns)) {
      return line_error(line_number, tokens[3], "bad window end");
    }
    d.window_end = TimePoint::from_ns(end_ns);
  }

  if (!parse_int(tokens[4], d.seq_min)) {
    return line_error(line_number, tokens[4], "bad seq min");
  }
  if (tokens[5] == "*") {
    d.seq_max = kNoSeqLimit;
  } else if (!parse_int(tokens[5], d.seq_max)) {
    return line_error(line_number, tokens[5], "bad seq max");
  }

  if (tokens[6] == "0") {
    d.only_retransmissions = false;
  } else if (tokens[6] == "1") {
    d.only_retransmissions = true;
  } else {
    return line_error(line_number, tokens[6], "bad retransmission flag");
  }

  if (tokens[7] == "*") {
    d.max_triggers = kNoTriggerLimit;
  } else if (!parse_int(tokens[7], d.max_triggers)) {
    return line_error(line_number, tokens[7], "bad trigger limit");
  }

  std::int64_t delay_ns = 0;
  if (!parse_int(tokens[8], delay_ns) || delay_ns < 0) {
    return line_error(line_number, tokens[8], "bad delay");
  }
  d.delay = Duration::nanos(delay_ns);

  if (!parse_int(tokens[9], d.copies)) {
    return line_error(line_number, tokens[9], "bad copy count");
  }

  d.label = tokens[10];
  if (d.window_begin > d.window_end) {
    return line_error(line_number, tokens[3], "inverted window");
  }
  if (d.seq_min > d.seq_max) {
    return line_error(line_number, tokens[5], "inverted sequence range");
  }
  return util::Status::ok();
}

}  // namespace

namespace {

void write_directives(std::ostream& os, const FaultPlan& plan) {
  for (const FaultDirective& d : plan.directives) {
    os << fault_action_code(d.action) << ' ' << kind_code(d.kind) << ' '
       << d.window_begin.ns() << ' ';
    if (d.window_end == TimePoint::max()) {
      os << '*';
    } else {
      os << d.window_end.ns();
    }
    os << ' ' << d.seq_min << ' ';
    if (d.seq_max == kNoSeqLimit) {
      os << '*';
    } else {
      os << d.seq_max;
    }
    os << ' ' << (d.only_retransmissions ? 1 : 0) << ' ';
    if (d.max_triggers == kNoTriggerLimit) {
      os << '*';
    } else {
      os << d.max_triggers;
    }
    os << ' ' << d.delay.ns() << ' ' << d.copies << ' '
       << sanitize_label(d.label) << '\n';
  }
}

}  // namespace

void write_fault_plan(std::ostream& os, const FaultPlan& plan) {
  os << kMagic << " directives=" << plan.directives.size() << '\n';
  write_directives(os, plan);
}

void write_plan_file(std::ostream& os, const PlanFile& file) {
  if (!file.params.has_value()) {
    // No parameters to carry: stay on v1 so existing archives, golden files
    // and old readers keep working byte for byte.
    write_fault_plan(os, file.plan);
    return;
  }
  const ReplayParams& p = *file.params;
  os << kMagicV2 << " directives=" << file.plan.directives.size() << " params=1\n";
  os << "P " << util::format_double(p.down_rate_bps) << ' ' << p.down_delay_ns << ' '
     << p.down_queue << ' ' << util::format_double(p.up_rate_bps) << ' '
     << p.up_delay_ns << ' ' << p.up_queue << ' ' << p.tcp.mss_bytes << ' '
     << p.tcp.delayed_ack_b << ' ' << p.tcp.min_rto.ns() << ' '
     << p.receiver_window << ' ' << (p.tcp.enable_sack ? 1 : 0) << ' '
     << (p.tcp.enable_frto ? 1 : 0);
  if (p.tcp.congestion_control != tcp::CongestionControl::kReno ||
      p.tcp.adaptive_delack) {
    // Only plans that actually touch these knobs grow the optional pair —
    // everything else keeps the legacy 12-field line byte-for-byte.
    os << ' ' << static_cast<unsigned>(p.tcp.congestion_control) << ' '
       << (p.tcp.adaptive_delack ? 1 : 0);
  }
  os << '\n';
  write_directives(os, file.plan);
}

util::StatusOr<PlanFile> read_plan_file(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    return util::Status::invalid_argument("plan line 1: empty stream, no header");
  }
  std::size_t declared = 0;
  bool expect_params = false;
  {
    std::istringstream hs(line);
    std::string magic;
    std::string count_field;
    if (!(hs >> magic >> count_field) || (magic != kMagic && magic != kMagicV2) ||
        count_field.rfind("directives=", 0) != 0) {
      return line_error(1, line, "bad plan header");
    }
    if (!parse_int(count_field.substr(11), declared)) {
      return line_error(1, count_field, "bad directive count");
    }
    if (magic == kMagicV2) {
      std::string params_field;
      if (!(hs >> params_field) ||
          (params_field != "params=0" && params_field != "params=1")) {
        return line_error(1, params_field, "bad params flag in v2 header");
      }
      expect_params = params_field == "params=1";
    }
  }

  PlanFile file;
  std::size_t line_number = 1;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::vector<std::string> tokens = split_tokens(line);
    if (expect_params) {
      // The P line must be the first payload line of a params=1 file.
      ReplayParams p;
      util::Status status = parse_params_line(tokens, line_number, p);
      if (!status.is_ok()) return status;
      file.params = p;
      expect_params = false;
      continue;
    }
    FaultDirective d;
    util::Status status = parse_directive(tokens, line_number, d);
    if (!status.is_ok()) return status;
    file.plan.directives.push_back(std::move(d));
  }
  if (expect_params) {
    return util::Status::invalid_argument(
        "plan: header declares params=1 but no P line followed");
  }
  if (file.plan.directives.size() != declared) {
    // The header count is an integrity check: a truncated plan file silently
    // dropping directives would change the experiment it claims to describe.
    return util::Status::invalid_argument(
        "plan: header declares " + std::to_string(declared) + " directives, found " +
        std::to_string(file.plan.directives.size()));
  }
  return file;
}

util::StatusOr<FaultPlan> read_fault_plan(std::istream& is) {
  auto file = read_plan_file(is);
  if (!file.is_ok()) return file.status();
  return std::move(file.value().plan);
}

util::Status save_plan_file(util::Fs& fs, const std::string& path,
                            const PlanFile& file) {
  // Atomic write through the seam, same contract as trace_io::save_flow_capture.
  std::ostringstream content;
  write_plan_file(content, file);
  return util::write_file_atomic(fs, path, content.str());
}

util::Status save_plan_file(const std::string& path, const PlanFile& file) {
  return save_plan_file(util::Fs::real(), path, file);
}

util::StatusOr<PlanFile> load_plan_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) return util::Status::not_found("cannot open: " + path);
  return read_plan_file(f);
}

std::string FaultPlan::to_text() const {
  std::ostringstream os;
  write_fault_plan(os, *this);
  return os.str();
}

util::StatusOr<FaultPlan> FaultPlan::parse(const std::string& text) {
  std::istringstream is(text);
  return read_fault_plan(is);
}

}  // namespace hsr::fault
