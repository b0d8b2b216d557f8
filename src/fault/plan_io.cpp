#include "fault/plan_io.h"

#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/format.h"
#include "util/text.h"

namespace hsr::fault {

namespace {

constexpr const char* kMagic = "hsrfaultplan-v1";
constexpr const char* kMagicV2 = "hsrfaultplan-v2";
constexpr std::string_view kFormat = "plan";  // errors read "plan line N: ..."

using Tokens = std::vector<std::string_view>;

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

util::Status parse_params_line(const Tokens& tokens, std::size_t line_number,
                               ReplayParams& p) {
  // 12 mandatory fields; plans recording a non-default congestion control
  // or adaptive delayed-ACK append the optional <cc> <adaptive> pair.
  if ((tokens.size() != 13 && tokens.size() != 15) || tokens[0] != "P") {
    return util::line_error(kFormat, line_number, tokens[0],
                            "expected P line with 12 parameter fields");
  }
  if (!util::parse_number(tokens[1], p.down_rate_bps) || p.down_rate_bps <= 0) {
    return util::line_error(kFormat, line_number, tokens[1], "bad downlink rate");
  }
  if (!util::parse_number(tokens[2], p.down_delay_ns) || p.down_delay_ns < 0) {
    return util::line_error(kFormat, line_number, tokens[2], "bad downlink delay");
  }
  if (!util::parse_number(tokens[3], p.down_queue) || p.down_queue == 0) {
    return util::line_error(kFormat, line_number, tokens[3],
                            "bad downlink queue capacity");
  }
  if (!util::parse_number(tokens[4], p.up_rate_bps) || p.up_rate_bps <= 0) {
    return util::line_error(kFormat, line_number, tokens[4], "bad uplink rate");
  }
  if (!util::parse_number(tokens[5], p.up_delay_ns) || p.up_delay_ns < 0) {
    return util::line_error(kFormat, line_number, tokens[5], "bad uplink delay");
  }
  if (!util::parse_number(tokens[6], p.up_queue) || p.up_queue == 0) {
    return util::line_error(kFormat, line_number, tokens[6], "bad uplink queue capacity");
  }
  if (!util::parse_number(tokens[7], p.tcp.mss_bytes) || p.tcp.mss_bytes == 0) {
    return util::line_error(kFormat, line_number, tokens[7], "bad mss");
  }
  if (!util::parse_number(tokens[8], p.tcp.delayed_ack_b) || p.tcp.delayed_ack_b == 0) {
    return util::line_error(kFormat, line_number, tokens[8], "bad delayed-ack b");
  }
  std::int64_t min_rto_ns = 0;
  if (!util::parse_number(tokens[9], min_rto_ns) || min_rto_ns < 0) {
    return util::line_error(kFormat, line_number, tokens[9], "bad min rto");
  }
  p.tcp.min_rto = Duration::nanos(min_rto_ns);
  if (!util::parse_number(tokens[10], p.receiver_window) || p.receiver_window == 0) {
    return util::line_error(kFormat, line_number, tokens[10], "bad receiver window");
  }
  if (tokens[11] != "0" && tokens[11] != "1") {
    return util::line_error(kFormat, line_number, tokens[11], "bad sack flag");
  }
  p.tcp.enable_sack = tokens[11] == "1";
  if (tokens[12] != "0" && tokens[12] != "1") {
    return util::line_error(kFormat, line_number, tokens[12], "bad frto flag");
  }
  p.tcp.enable_frto = tokens[12] == "1";
  if (tokens.size() == 15) {
    unsigned cc = 0;
    if (!util::parse_number(tokens[13], cc) ||
        cc > static_cast<unsigned>(tcp::CongestionControl::kVeno)) {
      return util::line_error(kFormat, line_number, tokens[13],
                              "bad congestion control code");
    }
    p.tcp.congestion_control = static_cast<tcp::CongestionControl>(cc);
    if (tokens[14] != "0" && tokens[14] != "1") {
      return util::line_error(kFormat, line_number, tokens[14],
                              "bad adaptive delack flag");
    }
    p.tcp.adaptive_delack = tokens[14] == "1";
  }
  return util::Status::ok();
}

util::Status parse_directive(const Tokens& tokens, std::size_t line_number,
                             FaultDirective& d) {
  if (tokens.size() != 11) {
    return util::line_error(kFormat, line_number, tokens.back(),
                            "expected 11 fields, got " + std::to_string(tokens.size()));
  }

  if (tokens[0] == "X") {
    d.action = FaultAction::kDrop;
  } else if (tokens[0] == "L") {
    d.action = FaultAction::kDelay;
  } else if (tokens[0] == "2") {
    d.action = FaultAction::kDuplicate;
  } else {
    return util::line_error(kFormat, line_number, tokens[0], "bad action code");
  }

  if (tokens[1] == "*") {
    d.kind = FaultDirective::KindFilter::kAny;
  } else if (tokens[1] == "D") {
    d.kind = FaultDirective::KindFilter::kData;
  } else if (tokens[1] == "A") {
    d.kind = FaultDirective::KindFilter::kAck;
  } else {
    return util::line_error(kFormat, line_number, tokens[1], "bad kind filter");
  }

  std::int64_t begin_ns = 0;
  if (!util::parse_number(tokens[2], begin_ns)) {
    return util::line_error(kFormat, line_number, tokens[2], "bad window begin");
  }
  d.window_begin = TimePoint::from_ns(begin_ns);

  if (tokens[3] == "*") {
    d.window_end = TimePoint::max();
  } else {
    std::int64_t end_ns = 0;
    if (!util::parse_number(tokens[3], end_ns)) {
      return util::line_error(kFormat, line_number, tokens[3], "bad window end");
    }
    d.window_end = TimePoint::from_ns(end_ns);
  }

  if (!util::parse_number(tokens[4], d.seq_min)) {
    return util::line_error(kFormat, line_number, tokens[4], "bad seq min");
  }
  if (tokens[5] == "*") {
    d.seq_max = kNoSeqLimit;
  } else if (!util::parse_number(tokens[5], d.seq_max)) {
    return util::line_error(kFormat, line_number, tokens[5], "bad seq max");
  }

  if (tokens[6] == "0") {
    d.only_retransmissions = false;
  } else if (tokens[6] == "1") {
    d.only_retransmissions = true;
  } else {
    return util::line_error(kFormat, line_number, tokens[6], "bad retransmission flag");
  }

  if (tokens[7] == "*") {
    d.max_triggers = kNoTriggerLimit;
  } else if (!util::parse_number(tokens[7], d.max_triggers)) {
    return util::line_error(kFormat, line_number, tokens[7], "bad trigger limit");
  }

  std::int64_t delay_ns = 0;
  if (!util::parse_number(tokens[8], delay_ns) || delay_ns < 0) {
    return util::line_error(kFormat, line_number, tokens[8], "bad delay");
  }
  d.delay = Duration::nanos(delay_ns);

  if (!util::parse_number(tokens[9], d.copies)) {
    return util::line_error(kFormat, line_number, tokens[9], "bad copy count");
  }

  d.label = tokens[10];
  if (d.window_begin > d.window_end) {
    return util::line_error(kFormat, line_number, tokens[3], "inverted window");
  }
  if (d.seq_min > d.seq_max) {
    return util::line_error(kFormat, line_number, tokens[5], "inverted sequence range");
  }
  return util::Status::ok();
}

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
       << util::single_token(d.label, "fault") << '\n';
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

namespace {

util::StatusOr<PlanFile> parse_plan_file(std::string_view text) {
  util::LineReader lines(text);
  if (!lines.next()) {
    return util::Status::invalid_argument("plan line 1: empty stream, no header");
  }
  const Tokens& header = lines.tokens();
  const std::size_t header_line = lines.line_number();
  if (header.size() < 2 || (header[0] != kMagic && header[0] != kMagicV2) ||
      !header[1].starts_with("directives=")) {
    return util::line_error(kFormat, header_line, lines.line(), "bad plan header");
  }
  std::size_t declared = 0;
  if (!util::parse_number(header[1].substr(11), declared)) {
    return util::line_error(kFormat, header_line, header[1], "bad directive count");
  }
  bool expect_params = false;
  if (header[0] == kMagicV2) {
    const std::string_view params = header.size() > 2 ? header[2] : std::string_view();
    if (params != "params=0" && params != "params=1") {
      return util::line_error(kFormat, header_line, params,
                              "bad params flag in v2 header");
    }
    expect_params = params == "params=1";
  }

  PlanFile file;
  while (lines.next()) {
    if (expect_params) {
      // The P line must be the first payload line of a params=1 file.
      ReplayParams p;
      util::Status status = parse_params_line(lines.tokens(), lines.line_number(), p);
      if (!status.is_ok()) return status;
      file.params = p;
      expect_params = false;
      continue;
    }
    FaultDirective d;
    util::Status status = parse_directive(lines.tokens(), lines.line_number(), d);
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

util::StatusOr<FaultPlan> plan_only(util::StatusOr<PlanFile> file) {
  if (!file.is_ok()) return file.status();
  return std::move(file.value().plan);
}

}  // namespace

util::StatusOr<PlanFile> read_plan_file(std::istream& is) {
  auto text = util::read_all(is);
  if (!text.is_ok()) return text.status();
  return parse_plan_file(text.value());
}

util::StatusOr<FaultPlan> read_fault_plan(std::istream& is) {
  return plan_only(read_plan_file(is));
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
  auto text = util::read_text_file(path);
  if (!text.is_ok()) return text.status();
  return parse_plan_file(text.value());
}

std::string FaultPlan::to_text() const {
  std::ostringstream os;
  write_fault_plan(os, *this);
  return os.str();
}

util::StatusOr<FaultPlan> FaultPlan::parse(const std::string& text) {
  return plan_only(parse_plan_file(text));
}

}  // namespace hsr::fault
