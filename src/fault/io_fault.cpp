#include "fault/io_fault.h"

#include <sstream>
#include <string_view>
#include <utility>

#include "util/text.h"

namespace hsr::fault {

namespace {

constexpr const char* kIoMagic = "hsriofaultplan-v1";
constexpr std::string_view kFormat = "io plan";  // errors read "io plan line N: ..."

using Tokens = std::vector<std::string_view>;

char outcome_code(IoOutcome outcome) {
  switch (outcome) {
    case IoOutcome::kFail: return 'F';
    case IoOutcome::kTransient: return 'U';
    case IoOutcome::kEnospc: return 'E';
    case IoOutcome::kShortWrite: return 'H';
    case IoOutcome::kTornRename: return 'N';
  }
  return '?';
}

util::Status parse_io_directive(const Tokens& tokens, std::size_t line_number,
                                IoFaultDirective& d) {
  if (tokens.size() != 7) {
    return util::line_error(kFormat, line_number, tokens.back(),
                            "expected 7 fields, got " + std::to_string(tokens.size()));
  }
  if (tokens[0].size() != 1) {
    return util::line_error(kFormat, line_number, tokens[0], "bad op code");
  }
  switch (tokens[0][0]) {
    case '*': d.op = IoOp::kAny; break;
    case 'O': d.op = IoOp::kOpen; break;
    case 'W': d.op = IoOp::kWrite; break;
    case 'S': d.op = IoOp::kSync; break;
    case 'R': d.op = IoOp::kRename; break;
    case 'D': d.op = IoOp::kRemove; break;
    case 'T': d.op = IoOp::kTruncate; break;
    case 'M': d.op = IoOp::kMkdir; break;
    default: return util::line_error(kFormat, line_number, tokens[0], "bad op code");
  }
  if (tokens[1].size() != 1) {
    return util::line_error(kFormat, line_number, tokens[1], "bad outcome code");
  }
  switch (tokens[1][0]) {
    case 'F': d.outcome = IoOutcome::kFail; break;
    case 'U': d.outcome = IoOutcome::kTransient; break;
    case 'E': d.outcome = IoOutcome::kEnospc; break;
    case 'H': d.outcome = IoOutcome::kShortWrite; break;
    case 'N': d.outcome = IoOutcome::kTornRename; break;
    default: return util::line_error(kFormat, line_number, tokens[1], "bad outcome code");
  }
  if (!util::parse_number(tokens[2], d.skip)) {
    return util::line_error(kFormat, line_number, tokens[2], "bad skip count");
  }
  if (tokens[3] == "*") {
    d.max_triggers = kNoIoTriggerLimit;
  } else if (!util::parse_number(tokens[3], d.max_triggers)) {
    return util::line_error(kFormat, line_number, tokens[3], "bad trigger limit");
  }
  if (!util::parse_number(tokens[4], d.byte_limit)) {
    return util::line_error(kFormat, line_number, tokens[4], "bad byte limit");
  }
  d.path_substring = tokens[5] == "*" ? "" : tokens[5];
  d.label = tokens[6];
  return util::Status::ok();
}

}  // namespace

char io_op_code(IoOp op) {
  switch (op) {
    case IoOp::kAny: return '*';
    case IoOp::kOpen: return 'O';
    case IoOp::kWrite: return 'W';
    case IoOp::kSync: return 'S';
    case IoOp::kRename: return 'R';
    case IoOp::kRemove: return 'D';
    case IoOp::kTruncate: return 'T';
    case IoOp::kMkdir: return 'M';
  }
  return '?';
}

const char* io_op_name(IoOp op) {
  switch (op) {
    case IoOp::kAny: return "any";
    case IoOp::kOpen: return "open";
    case IoOp::kWrite: return "write";
    case IoOp::kSync: return "sync";
    case IoOp::kRename: return "rename";
    case IoOp::kRemove: return "remove";
    case IoOp::kTruncate: return "truncate";
    case IoOp::kMkdir: return "mkdir";
  }
  return "unknown";
}

std::string IoFaultPlan::to_text() const {
  std::ostringstream os;
  os << kIoMagic << " directives=" << directives.size() << '\n';
  for (const IoFaultDirective& d : directives) {
    os << io_op_code(d.op) << ' ' << outcome_code(d.outcome) << ' ' << d.skip
       << ' ';
    if (d.max_triggers == kNoIoTriggerLimit) {
      os << '*';
    } else {
      os << d.max_triggers;
    }
    os << ' ' << d.byte_limit << ' ' << util::single_token(d.path_substring, "*")
       << ' ' << util::single_token(d.label, "io-fault") << '\n';
  }
  return os.str();
}

util::StatusOr<IoFaultPlan> IoFaultPlan::parse(const std::string& text) {
  util::LineReader lines(text);
  if (!lines.next()) {
    return util::Status::invalid_argument("io plan line 1: empty input, no header");
  }
  const Tokens& header = lines.tokens();
  const std::size_t header_line = lines.line_number();
  if (header.size() < 2 || header[0] != kIoMagic ||
      !header[1].starts_with("directives=")) {
    return util::line_error(kFormat, header_line, lines.line(), "bad io plan header");
  }
  std::size_t declared = 0;
  if (!util::parse_number(header[1].substr(11), declared)) {
    return util::line_error(kFormat, header_line, header[1], "bad directive count");
  }
  IoFaultPlan plan;
  while (lines.next()) {
    IoFaultDirective d;
    util::Status status = parse_io_directive(lines.tokens(), lines.line_number(), d);
    if (!status.is_ok()) return status;
    plan.directives.push_back(std::move(d));
  }
  if (plan.directives.size() != declared) {
    // Header count doubles as a truncation check, like hsrfaultplan files.
    return util::Status::invalid_argument(
        "io plan: header declares " + std::to_string(declared) +
        " directives, found " + std::to_string(plan.directives.size()));
  }
  return plan;
}

util::StatusOr<IoFaultPlan> IoFaultPlan::load(const std::string& path) {
  auto text = util::read_text_file(path);
  if (!text.is_ok()) return text.status();
  return parse(text.value());
}

IoFaultPlan& IoFaultPlan::fail_nth_write(std::uint64_t n,
                                         std::string path_substring,
                                         std::string label) {
  IoFaultDirective d;
  d.op = IoOp::kWrite;
  d.outcome = IoOutcome::kFail;
  d.skip = n > 0 ? n - 1 : 0;
  d.max_triggers = 1;
  d.path_substring = std::move(path_substring);
  d.label = std::move(label);
  directives.push_back(std::move(d));
  return *this;
}

IoFaultPlan& IoFaultPlan::enospc_after(std::uint64_t bytes,
                                       std::string path_substring,
                                       std::string label) {
  IoFaultDirective d;
  d.op = IoOp::kWrite;
  d.outcome = IoOutcome::kEnospc;
  d.max_triggers = kNoIoTriggerLimit;  // a full disk stays full
  d.byte_limit = bytes;
  d.path_substring = std::move(path_substring);
  d.label = std::move(label);
  directives.push_back(std::move(d));
  return *this;
}

IoFaultPlan& IoFaultPlan::short_write(std::uint64_t n, std::string path_substring,
                                      std::string label) {
  IoFaultDirective d;
  d.op = IoOp::kWrite;
  d.outcome = IoOutcome::kShortWrite;
  d.skip = n > 0 ? n - 1 : 0;
  d.max_triggers = 1;
  d.path_substring = std::move(path_substring);
  d.label = std::move(label);
  directives.push_back(std::move(d));
  return *this;
}

IoFaultPlan& IoFaultPlan::torn_rename(std::string path_substring,
                                      std::string label) {
  IoFaultDirective d;
  d.op = IoOp::kRename;
  d.outcome = IoOutcome::kTornRename;
  d.max_triggers = 1;
  d.path_substring = std::move(path_substring);
  d.label = std::move(label);
  directives.push_back(std::move(d));
  return *this;
}

IoFaultPlan& IoFaultPlan::transient(IoOp op, std::uint64_t times,
                                    std::string path_substring,
                                    std::string label) {
  IoFaultDirective d;
  d.op = op;
  d.outcome = IoOutcome::kTransient;
  d.max_triggers = times;
  d.path_substring = std::move(path_substring);
  d.label = std::move(label);
  directives.push_back(std::move(d));
  return *this;
}

IoFaultPlan& IoFaultPlan::fail_next(IoOp op, std::string path_substring,
                                    std::string label) {
  IoFaultDirective d;
  d.op = op;
  d.outcome = IoOutcome::kFail;
  d.max_triggers = 1;
  d.path_substring = std::move(path_substring);
  d.label = std::move(label);
  directives.push_back(std::move(d));
  return *this;
}

// WritableFile decorator routing appends/syncs back through the plan. At
// namespace scope (not anonymous) so the friend declaration in the header
// names this class.
class FaultingWritableFile final : public util::WritableFile {
 public:
  FaultingWritableFile(FaultInjectingFs* parent, std::string path,
                       std::unique_ptr<util::WritableFile> inner)
      : parent_(parent), path_(std::move(path)), inner_(std::move(inner)) {}

  util::Status append(std::string_view data) override {
    return parent_->faulted_append(path_, *inner_, data);
  }
  util::Status sync() override {
    return parent_->faulted_sync(path_, *inner_);
  }
  util::Status close() override { return inner_->close(); }

 private:
  FaultInjectingFs* parent_;
  std::string path_;
  std::unique_ptr<util::WritableFile> inner_;
};

FaultInjectingFs::FaultInjectingFs(IoFaultPlan plan, util::Fs& inner)
    : plan_(std::move(plan)), inner_(inner), state_(plan_.directives.size()) {}

FaultInjectingFs::Decision FaultInjectingFs::decide(IoOp op,
                                                    const std::string& path,
                                                    std::uint64_t bytes,
                                                    const std::string* alt_path) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < plan_.directives.size(); ++i) {
    const IoFaultDirective& d = plan_.directives[i];
    if (d.op != IoOp::kAny && d.op != op) continue;
    if (!d.path_substring.empty()) {
      const bool hit =
          path.find(d.path_substring) != std::string::npos ||
          (alt_path != nullptr &&
           alt_path->find(d.path_substring) != std::string::npos);
      if (!hit) continue;
    }
    DirectiveState& s = state_[i];
    if (d.outcome == IoOutcome::kEnospc) {
      // The budget is bytes actually committed by matching writes; once it
      // would overflow, this and every later matching write fails.
      if (op != IoOp::kWrite) continue;
      if (s.triggers == 0 && s.bytes + bytes <= d.byte_limit) {
        s.bytes += bytes;
        continue;
      }
      if (s.triggers >= d.max_triggers) continue;
    } else {
      ++s.matched;
      if (s.matched <= d.skip) continue;
      if (s.triggers >= d.max_triggers) continue;
    }
    ++s.triggers;
    audit_.push_back(IoFaultRecord{i, op, path, d.label});
    return Decision{true, i, d.outcome, d.label};
  }
  return Decision{};
}

util::Status FaultInjectingFs::fault_status(const Decision& d, IoOp op,
                                            const std::string& path) {
  const std::string detail = "scripted io fault '" + d.label + "' on " +
                             io_op_name(op) + " '" + path + "'";
  switch (d.outcome) {
    case IoOutcome::kTransient:
      return util::Status::unavailable(detail + " (transient)");
    case IoOutcome::kEnospc:
      return util::Status::resource_exhausted(detail + " (ENOSPC)");
    case IoOutcome::kFail:
    case IoOutcome::kShortWrite:  // non-write op: plain failure
    case IoOutcome::kTornRename:  // non-rename op: plain failure
      return util::Status::internal(detail);
  }
  return util::Status::internal(detail);
}

util::Status FaultInjectingFs::faulted_append(const std::string& path,
                                              util::WritableFile& inner,
                                              std::string_view data) {
  const Decision d = decide(IoOp::kWrite, path, data.size());
  if (!d.fire) return inner.append(data);
  if (d.outcome == IoOutcome::kShortWrite) {
    // Half the buffer reaches the file before the error — the classic
    // partial write a crash-safe writer must tolerate.
    (void)inner.append(data.substr(0, data.size() / 2));
    return util::Status::internal("scripted short write '" + d.label +
                                  "' on '" + path + "'");
  }
  return fault_status(d, IoOp::kWrite, path);
}

util::Status FaultInjectingFs::faulted_sync(const std::string& path,
                                            util::WritableFile& inner) {
  const Decision d = decide(IoOp::kSync, path, 0);
  if (!d.fire) return inner.sync();
  return fault_status(d, IoOp::kSync, path);
}

util::StatusOr<std::unique_ptr<util::WritableFile>>
FaultInjectingFs::open_for_write(const std::string& path) {
  const Decision d = decide(IoOp::kOpen, path, 0);
  if (d.fire) return fault_status(d, IoOp::kOpen, path);
  auto inner = inner_.open_for_write(path);
  if (!inner.is_ok()) return inner.status();
  return std::unique_ptr<util::WritableFile>(
      new FaultingWritableFile(this, path, std::move(inner.value())));
}

util::Status FaultInjectingFs::rename_file(const std::string& from,
                                           const std::string& to) {
  const Decision d = decide(IoOp::kRename, from, 0, &to);
  if (!d.fire) return inner_.rename_file(from, to);
  if (d.outcome == IoOutcome::kTornRename) {
    // Model a crash mid-rename: the source is left mangled, the destination
    // untouched — a committed archive must survive this.
    auto size = inner_.file_size(from);
    if (size.is_ok()) {
      (void)inner_.truncate_file(from, size.value() / 2);
    }
    return util::Status::internal("scripted torn rename '" + d.label + "' '" +
                                  from + "' -> '" + to + "'");
  }
  return fault_status(d, IoOp::kRename, from);
}

util::Status FaultInjectingFs::remove_file(const std::string& path) {
  const Decision d = decide(IoOp::kRemove, path, 0);
  if (d.fire) return fault_status(d, IoOp::kRemove, path);
  return inner_.remove_file(path);
}

util::Status FaultInjectingFs::remove_all(const std::string& path) {
  const Decision d = decide(IoOp::kRemove, path, 0);
  if (d.fire) return fault_status(d, IoOp::kRemove, path);
  return inner_.remove_all(path);
}

util::Status FaultInjectingFs::truncate_file(const std::string& path,
                                             std::uint64_t size) {
  const Decision d = decide(IoOp::kTruncate, path, 0);
  if (d.fire) return fault_status(d, IoOp::kTruncate, path);
  return inner_.truncate_file(path, size);
}

util::Status FaultInjectingFs::create_directories(const std::string& path) {
  const Decision d = decide(IoOp::kMkdir, path, 0);
  if (d.fire) return fault_status(d, IoOp::kMkdir, path);
  return inner_.create_directories(path);
}

util::StatusOr<std::uint64_t> FaultInjectingFs::file_size(const std::string& path) {
  return inner_.file_size(path);  // reads are never faulted
}

bool FaultInjectingFs::exists(const std::string& path) {
  return inner_.exists(path);
}

std::uint64_t FaultInjectingFs::triggers(std::size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  return i < state_.size() ? state_[i].triggers : 0;
}

std::uint64_t FaultInjectingFs::faults_triggered() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const DirectiveState& s : state_) total += s.triggers;
  return total;
}

std::vector<IoFaultRecord> FaultInjectingFs::audit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return audit_;
}

}  // namespace hsr::fault
