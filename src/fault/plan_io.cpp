// The hsrfaultplan-v1 codec: FaultPlan::to_text / parse / load (grammar in
// fault/fault.h).
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "fault/fault.h"
#include "util/text.h"

namespace hsr::fault {

namespace {

constexpr const char* kMagic = "hsrfaultplan-v1";
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

}  // namespace

std::string FaultPlan::to_text() const {
  std::ostringstream os;
  os << kMagic << " directives=" << directives.size() << '\n';
  for (const FaultDirective& d : directives) {
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
  return os.str();
}

util::StatusOr<FaultPlan> FaultPlan::parse(const std::string& text) {
  util::LineReader lines(text);
  if (!lines.next()) {
    return util::Status::invalid_argument("plan line 1: empty stream, no header");
  }
  const Tokens& header = lines.tokens();
  const std::size_t header_line = lines.line_number();
  if (header.size() < 2 || header[0] != kMagic || !header[1].starts_with("directives=")) {
    return util::line_error(kFormat, header_line, lines.line(), "bad plan header");
  }
  std::size_t declared = 0;
  if (!util::parse_number(header[1].substr(11), declared)) {
    return util::line_error(kFormat, header_line, header[1], "bad directive count");
  }

  FaultPlan plan;
  while (lines.next()) {
    FaultDirective d;
    util::Status status = parse_directive(lines.tokens(), lines.line_number(), d);
    if (!status.is_ok()) return status;
    plan.directives.push_back(std::move(d));
  }
  if (plan.directives.size() != declared) {
    // The header count is an integrity check: a truncated plan file silently
    // dropping directives would change the experiment it claims to describe.
    return util::Status::invalid_argument(
        "plan: header declares " + std::to_string(declared) + " directives, found " +
        std::to_string(plan.directives.size()));
  }
  return plan;
}

util::StatusOr<FaultPlan> FaultPlan::load(const std::string& path) {
  auto text = util::read_text_file(path);
  if (!text.is_ok()) return text.status();
  return parse(text.value());
}

}  // namespace hsr::fault
