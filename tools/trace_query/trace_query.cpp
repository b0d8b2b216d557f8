// trace_query — packet-fate queries over archived trace files.
//
// Answers the questions the paper's workflow answered with wireshark filters,
// from a capture file alone (no live simulator state). Trace arguments accept
// BOTH formats transparently: text archives ("hsrtrace-v2"/"-v1") and binary
// corpora ("hsrtrace-b2"); multi-flow corpora are addressed with --flow N.
//   summary <trace> [--flow N]   counts, loss rates, fault totals
//   why <trace> <packet-id> [--flow N]  the fate of one packet, cause-coded
//   losses <trace> [--flow N]    per-cause loss breakdown, data vs ACK
//   ratios <trace> [--flow N]    headline ratios: q-hat, ACK-burst-loss
//                                rounds, spurious fraction
//   ls <trace>                   one line per flow / quarantine record
//   verify <trace>               integrity scan: every frame decoded and
//                                CRC- and sequence-checked; the first bad
//                                frame is NAMED and the exit status raised
//   convert <in> <out> --to-binary|--to-text [--flow N]
//                                lossless format conversion
//   replay [options]             re-run an experiment from fault-plan files
//                                (bit-identical)
//   selftest                     end-to-end smoke test (ctest hook)
//
// replay options:
//   --down-plan <file>   fault plan for the data direction (optional)
//   --up-plan <file>     fault plan for the ACK direction (optional)
//   --duration <s>       simulated seconds (default 65)
//   --save <file>        write the capture archive ("hsrtrace-v2")
// The replay path is deliberately RNG-free: perfect organic channels plus
// deterministic scripted faults over the fixed EXPERIMENTS.md recipe
// topology (10 Mbit/s, 20 ms one-way), so the same hsrfaultplan-v1 files
// always reproduce the same capture byte for byte.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/flow_analysis.h"
#include "fault/fault.h"
#include "net/channel.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "trace/capture.h"
#include "trace/trace_binary.h"
#include "trace/trace_io.h"
#include "util/fs.h"
#include "util/text.h"
#include "util/time.h"

namespace {

using hsr::net::DropCategory;
using hsr::util::Duration;
using hsr::util::TimePoint;

int usage() {
  std::cerr
      << "usage: trace_query <command> [args]\n"
         "  summary <trace> [--flow N]  counts, loss rates, fault totals\n"
         "  why <trace> <packet-id> [--flow N]  fate of one packet\n"
         "  losses <trace> [--flow N]   per-cause loss breakdown (data vs ACK)\n"
         "  ratios <trace> [--flow N]   q-hat, ACK-burst rounds, spurious share\n"
         "  ls <trace>                  list flows / quarantines in a corpus\n"
         "  verify <trace>              integrity scan, names the first bad frame\n"
         "  convert <in> <out> --to-binary|--to-text [--flow N]\n"
         "  replay [--down-plan F] [--up-plan F] [--duration S] [--save F]\n"
         "  selftest                    end-to-end smoke test\n"
         "trace files may be text (hsrtrace-v2/v1) or binary (hsrtrace-b2).\n";
  return 2;
}

// Parses all of `text` as a finite number of seconds greater than zero.
bool parse_seconds(const char* text, double& out) {
  return hsr::util::parse_number(text, out) && std::isfinite(out) && out > 0.0;
}

// --- summary -----------------------------------------------------------------

void print_summary(const hsr::trace::FlowCapture& cap, std::ostream& os) {
  os << "flow " << cap.flow << '\n'
     << "  data: sent " << cap.data.sent_count() << ", lost "
     << cap.data.lost_count() << " (" << cap.data.loss_rate() * 100.0 << " %)\n"
     << "  acks: sent " << cap.acks.sent_count() << ", lost "
     << cap.acks.lost_count() << " (" << cap.acks.loss_rate() * 100.0 << " %)\n"
     << "  span " << cap.span().to_seconds() << " s, est. RTT "
     << cap.estimated_rtt().to_seconds() * 1e3 << " ms\n"
     << "  scripted faults fired: " << cap.faults.size() << '\n';
}

// --- why ---------------------------------------------------------------------

// The fault-audit label for a scripted drop, when the archive carries one.
std::string scripted_label(const hsr::trace::FlowCapture& cap, char direction,
                           std::uint64_t packet_id) {
  for (const auto& f : cap.faults) {
    if (f.direction == direction && f.packet_id == packet_id && f.action == 'X') {
      return f.label;
    }
  }
  return "";
}

void print_fate(const hsr::trace::FlowCapture& cap, char direction,
                const hsr::trace::Transmission& tx, std::ostream& os) {
  const char* what = direction == 'D' ? "data" : "ack";
  os << what << " packet " << tx.packet.id << " (seq " << tx.packet.seq
     << ", ack_next " << tx.packet.ack_next << ", retx " << tx.packet.retx_count
     << ") sent at " << tx.sent.to_seconds() << " s: ";
  if (tx.arrived) {
    os << "DELIVERED at " << tx.arrived->to_seconds() << " s (transit "
       << tx.transit().to_seconds() * 1e3 << " ms)\n";
    return;
  }
  if (!tx.drop_cause) {
    os << "no fate recorded (in flight at capture end)\n";
    return;
  }
  os << "LOST: " << hsr::net::drop_category_name(tx.drop_cause->category);
  if (tx.drop_cause->directive >= 0) {
    os << ", fault directive " << tx.drop_cause->directive;
    const std::string label = scripted_label(cap, direction, tx.packet.id);
    if (!label.empty()) os << " (" << label << ")";
  }
  os << '\n';
}

int run_why(const hsr::trace::FlowCapture& cap, std::uint64_t packet_id,
            std::ostream& os) {
  bool found = false;
  for (const auto& tx : cap.data.transmissions()) {
    if (tx.packet.id == packet_id) {
      print_fate(cap, 'D', tx, os);
      found = true;
    }
  }
  for (const auto& tx : cap.acks.transmissions()) {
    if (tx.packet.id == packet_id) {
      print_fate(cap, 'A', tx, os);
      found = true;
    }
  }
  if (!found) {
    os << "packet " << packet_id << " not in capture\n";
    return 1;
  }
  return 0;
}

// --- losses ------------------------------------------------------------------

void print_losses(const hsr::trace::FlowCapture& cap, std::ostream& os) {
  const hsr::analysis::LossBreakdown b = hsr::analysis::loss_breakdown(cap);
  os << "data: " << b.data_lost << " of " << b.data_sent << " lost\n";
  for (std::size_t c = 0; c < hsr::net::kDropCategoryCount; ++c) {
    if (b.data_by_category[c] == 0) continue;
    os << "  " << hsr::net::drop_category_name(static_cast<DropCategory>(c))
       << ": " << b.data_by_category[c] << '\n';
  }
  if (b.data_unattributed > 0) {
    os << "  unattributed/in-flight: " << b.data_unattributed << '\n';
  }
  os << "acks: " << b.ack_lost << " of " << b.ack_sent << " lost\n";
  for (std::size_t c = 0; c < hsr::net::kDropCategoryCount; ++c) {
    if (b.ack_by_category[c] == 0) continue;
    os << "  " << hsr::net::drop_category_name(static_cast<DropCategory>(c))
       << ": " << b.ack_by_category[c] << '\n';
  }
  if (b.ack_unattributed > 0) {
    os << "  unattributed/in-flight: " << b.ack_unattributed << '\n';
  }
  os << "scripted drops (both directions): " << b.scripted_drops << '\n';
}

// --- ratios ------------------------------------------------------------------

void print_ratios(const hsr::trace::FlowCapture& cap, std::ostream& os) {
  const hsr::analysis::FlowAnalysis fa = hsr::analysis::analyze_flow(cap);
  os << "timeout sequences: " << fa.timeout_sequences.size()
     << ", fast retransmits: " << fa.fast_retransmits << '\n'
     << "q-hat (in-recovery retransmit loss): " << fa.recovery_retx_loss_rate
     << '\n'
     << "P_a-hat (rounds with every ACK lost): " << fa.ack_burst_loss_probability
     << '\n'
     << "spurious timeout fraction: " << fa.spurious_fraction << '\n'
     << "mean recovery duration: " << fa.mean_recovery_duration.to_seconds()
     << " s\n";
}

// --- ls ----------------------------------------------------------------------

int run_ls(const std::string& path, std::ostream& os) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::cerr << "cannot open: " << path << '\n';
    return 1;
  }
  if (!hsr::trace::sniff_binary_trace(f)) {
    const auto cap = hsr::trace::load_flow_capture(path);
    if (!cap.is_ok()) {
      std::cerr << cap.status().to_string() << '\n';
      return 1;
    }
    os << "text archive, 1 flow\n"
       << "flow " << cap.value().flow << "  data " << cap.value().data.sent_count()
       << "  acks " << cap.value().acks.sent_count() << "  faults "
       << cap.value().faults.size() << '\n';
    return 0;
  }

  hsr::trace::BinaryTraceReader reader(f);
  const auto opened = reader.open();
  if (!opened.is_ok()) {
    std::cerr << opened.to_string() << '\n';
    return 1;
  }
  if (reader.declared_flow_count() == hsr::trace::kUnknownFlowCount) {
    os << "binary corpus, streamed (flow count unknown)\n";
  } else {
    os << "binary corpus, " << reader.declared_flow_count() << " flows declared\n";
  }
  hsr::trace::FlowCapture flow;
  hsr::trace::QuarantineRecord quarantine;
  std::uint64_t quarantines = 0;
  bool torn = false;
  for (;;) {
    const auto frame = reader.next(&flow, &quarantine);
    if (!frame.is_ok()) {
      std::cerr << frame.status().to_string() << '\n';
      return 1;
    }
    if (frame.value() == hsr::trace::BinaryTraceReader::Frame::kEnd) break;
    if (frame.value() == hsr::trace::BinaryTraceReader::Frame::kTorn) {
      torn = true;
      break;
    }
    if (frame.value() == hsr::trace::BinaryTraceReader::Frame::kQuarantine) {
      ++quarantines;
      os << "quarantined flow " << quarantine.flow_index << " ("
         << quarantine.provider << ", " << quarantine.campaign
         << "): " << quarantine.message << '\n';
      continue;
    }
    os << "flow " << flow.flow << "  data " << flow.data.sent_count() << "  acks "
       << flow.acks.sent_count() << "  faults " << flow.faults.size() << '\n';
  }
  os << reader.flows_read() << " flow(s), " << quarantines << " quarantined\n";
  if (torn) os << "WARNING: torn trailing frame dropped (truncated archive)\n";
  return 0;
}

// --- verify ------------------------------------------------------------------

int run_verify(const std::string& path, std::ostream& os) {
  const auto report = hsr::trace::verify_trace_file(path);
  if (!report.is_ok()) {
    std::cerr << "corrupt: " << report.status().to_string() << '\n';
    return 1;
  }
  const auto& r = report.value();
  if (r.text) {
    os << "text archive: 1 flow\n";
  } else {
    os << "hsrtrace-b2: " << r.frames << " frames, " << r.flows
       << " flows, " << r.quarantines << " quarantined, " << r.other_frames
       << " other\n";
    if (r.declared_flow_count != hsr::trace::kUnknownFlowCount) {
      os << "declared flows " << r.declared_flow_count << '\n';
    }
  }
  if (r.torn_tail) os << "torn tail: truncated final frame dropped\n";
  os << (r.intact ? "intact\n" : "NOT intact\n");
  return r.intact ? 0 : 1;
}

// --- convert -------------------------------------------------------------------

int run_convert(const std::string& in_path, const std::string& out_path,
                bool to_binary, std::uint64_t nth, std::ostream& os) {
  const auto cap = hsr::trace::load_flow_capture_any(in_path, nth);
  if (!cap.is_ok()) {
    std::cerr << cap.status().to_string() << '\n';
    return 1;
  }
  const auto saved = to_binary
                         ? hsr::trace::save_capture_archive(out_path, {cap.value()})
                         : hsr::trace::save_flow_capture(out_path, cap.value());
  if (!saved.is_ok()) {
    std::cerr << saved.to_string() << '\n';
    return 1;
  }
  os << "converted " << in_path << " -> " << out_path << " ("
     << (to_binary ? "hsrtrace-b2" : "hsrtrace-v2") << ")\n";
  return 0;
}

// --- replay ------------------------------------------------------------------

struct ReplayOptions {
  std::string down_plan_path;
  std::string up_plan_path;
  double duration_s = 65.0;
  std::string save_path;
};

// Re-runs an archived experiment from its plan files: perfect organic
// channels decorated with the parsed FaultPlans. No RNG anywhere, so the
// capture depends only on the plans and the duration.
hsr::trace::FlowCapture replay(const hsr::fault::FaultPlan& down,
                               const hsr::fault::FaultPlan& up, double duration_s) {
  hsr::net::reset_packet_ids();
  hsr::sim::Simulator sim;
  hsr::trace::FlowCapture capture;
  capture.flow = 1;

  // The EXPERIMENTS.md scripted-fault path: 10 Mbit/s, 20 ms one-way.
  hsr::tcp::ConnectionConfig cfg;
  cfg.downlink.rate_bps = 10e6;
  cfg.downlink.prop_delay = Duration::millis(20);
  cfg.uplink.rate_bps = 10e6;
  cfg.uplink.prop_delay = Duration::millis(20);

  std::unique_ptr<hsr::net::ChannelModel> down_channel =
      std::make_unique<hsr::net::PerfectChannel>();
  std::unique_ptr<hsr::net::ChannelModel> up_channel =
      std::make_unique<hsr::net::PerfectChannel>();
  if (!down.empty()) {
    auto inj = std::make_unique<hsr::fault::FaultInjector>(down, std::move(down_channel));
    inj->set_audit(&capture.faults, 'D');
    down_channel = std::move(inj);
  }
  if (!up.empty()) {
    auto inj = std::make_unique<hsr::fault::FaultInjector>(up, std::move(up_channel));
    inj->set_audit(&capture.faults, 'A');
    up_channel = std::move(inj);
  }

  hsr::tcp::Connection conn(sim, 1, cfg, std::move(down_channel),
                            std::move(up_channel), &capture.data, &capture.acks);
  conn.start();
  sim.run_until(TimePoint::from_seconds(duration_s));
  return capture;
}

int run_replay(const ReplayOptions& opts, std::ostream& os) {
  hsr::fault::FaultPlan down;
  hsr::fault::FaultPlan up;
  if (!opts.down_plan_path.empty()) {
    auto parsed = hsr::fault::FaultPlan::load(opts.down_plan_path);
    if (!parsed.is_ok()) {
      std::cerr << "down-plan: " << parsed.status().to_string() << '\n';
      return 1;
    }
    down = std::move(parsed.value());
  }
  if (!opts.up_plan_path.empty()) {
    auto parsed = hsr::fault::FaultPlan::load(opts.up_plan_path);
    if (!parsed.is_ok()) {
      std::cerr << "up-plan: " << parsed.status().to_string() << '\n';
      return 1;
    }
    up = std::move(parsed.value());
  }
  if (down.empty() && up.empty()) {
    std::cerr << "replay: need --down-plan and/or --up-plan\n";
    return 2;
  }

  const hsr::trace::FlowCapture capture = replay(down, up, opts.duration_s);
  if (!opts.save_path.empty()) {
    const auto saved = hsr::trace::save_flow_capture(opts.save_path, capture);
    if (!saved.is_ok()) {
      std::cerr << saved.to_string() << '\n';
      return 1;
    }
    os << "saved " << opts.save_path << '\n';
  }
  print_summary(capture, os);
  print_ratios(capture, os);
  return 0;
}

// --- selftest ----------------------------------------------------------------

// End-to-end smoke: build a scripted plan, round-trip it through the text
// format, replay it twice (byte-identical captures), round-trip the capture
// through trace_io, and run every query over the result. Exercises the whole
// observability surface with no input files.
int run_selftest() {
  using hsr::fault::FaultPlan;

  FaultPlan down;
  down.blackout(TimePoint::from_seconds(2.0), TimePoint::from_seconds(2.25))
      .drop_retransmissions(1);

  // Plan text round-trip.
  const std::string text = down.to_text();
  const auto reparsed = FaultPlan::parse(text);
  if (!reparsed.is_ok() || !(reparsed.value() == down)) {
    std::cerr << "selftest: plan text round-trip failed\n";
    return 1;
  }

  // Replay determinism: same plans, byte-identical serialized captures.
  const hsr::trace::FlowCapture a = replay(reparsed.value(), FaultPlan{}, 10.0);
  const hsr::trace::FlowCapture b = replay(down, FaultPlan{}, 10.0);
  std::ostringstream sa;
  std::ostringstream sb;
  hsr::trace::write_flow_capture(sa, a);
  hsr::trace::write_flow_capture(sb, b);
  if (sa.str() != sb.str() || sa.str().empty()) {
    std::cerr << "selftest: replay is not byte-identical\n";
    return 1;
  }

  // Trace round-trip, then the queries over the reloaded capture.
  std::istringstream in(sa.str());
  const auto reloaded = hsr::trace::read_flow_capture(in);
  if (!reloaded.is_ok()) {
    std::cerr << "selftest: trace round-trip failed: "
              << reloaded.status().to_string() << '\n';
    return 1;
  }
  const hsr::trace::FlowCapture& cap = reloaded.value();

  // Every lost transmission must carry a non-unknown cause.
  const hsr::analysis::LossBreakdown lb = hsr::analysis::loss_breakdown(cap);
  if (lb.data_lost == 0 || lb.scripted_drops == 0) {
    std::cerr << "selftest: scripted blackout produced no attributed losses\n";
    return 1;
  }
  if (lb.data_by_category[static_cast<std::size_t>(DropCategory::kUnknown)] != 0 ||
      lb.ack_by_category[static_cast<std::size_t>(DropCategory::kUnknown)] != 0) {
    std::cerr << "selftest: lost packet with unknown cause\n";
    return 1;
  }

  // `why` must answer for a scripted casualty.
  std::uint64_t casualty = 0;
  for (const auto& tx : cap.data.transmissions()) {
    if (tx.lost() && tx.drop_cause && tx.drop_cause->is_scripted()) {
      casualty = tx.packet.id;
      break;
    }
  }
  std::ostringstream sink;
  if (casualty == 0 || run_why(cap, casualty, sink) != 0 ||
      sink.str().find("scripted-fault") == std::string::npos) {
    std::cerr << "selftest: 'why' did not attribute the scripted casualty\n";
    return 1;
  }
  print_summary(cap, sink);
  print_losses(cap, sink);
  print_ratios(cap, sink);
  if (sink.str().find("q-hat") == std::string::npos) {
    std::cerr << "selftest: ratios output incomplete\n";
    return 1;
  }

  // Binary round-trip: the hsrtrace-b2 reader must rebuild a capture whose
  // text serialization is byte-identical to the original's.
  std::ostringstream bin;
  hsr::trace::write_binary_trace_header(bin, 1);
  hsr::trace::write_flow_frame(bin, cap, 0);
  {
    std::istringstream bin_in(bin.str());
    const auto corpus = hsr::trace::read_binary_corpus(bin_in);
    if (!corpus.is_ok() || corpus.value().flows.size() != 1 ||
        corpus.value().torn_tail) {
      std::cerr << "selftest: binary corpus read failed\n";
      return 1;
    }
    std::ostringstream text_of_binary;
    hsr::trace::write_flow_capture(text_of_binary, corpus.value().flows[0]);
    if (text_of_binary.str() != sa.str()) {
      std::cerr << "selftest: binary->text round-trip not byte-identical\n";
      return 1;
    }
    if (static_cast<double>(sa.str().size()) <
        4.0 * static_cast<double>(bin.str().size())) {
      std::cerr << "selftest: binary format is not 4x smaller than text ("
                << bin.str().size() << " vs " << sa.str().size() << " bytes)\n";
      return 1;
    }
  }

  // Torn-tail tolerance: cutting the final frame short must drop it
  // gracefully, not error.
  {
    const std::string torn_bytes = bin.str().substr(0, bin.str().size() - 7);
    std::istringstream torn_in(torn_bytes);
    const auto torn = hsr::trace::read_binary_corpus(torn_in);
    if (!torn.is_ok() || !torn.value().torn_tail || !torn.value().flows.empty()) {
      std::cerr << "selftest: torn binary tail not tolerated\n";
      return 1;
    }
  }

  // Frame integrity: flipping one payload byte must be detected, named, and
  // attributed to the right frame — not silently decoded.
  {
    std::string corrupt = bin.str();
    corrupt[corrupt.size() - 3] ^= 0x01;
    std::istringstream corrupt_in(corrupt);
    const auto bad = hsr::trace::read_binary_corpus(corrupt_in);
    if (bad.is_ok() ||
        bad.status().message().find("crc32c mismatch") == std::string::npos ||
        bad.status().message().find("frame 0") == std::string::npos) {
      std::cerr << "selftest: corrupted frame not named\n";
      return 1;
    }
  }

  // The verify scan end to end: an intact archive passes, a corrupted copy
  // fails naming the bad frame. Uses a scratch file in the working directory
  // (ctest runs in the build tree).
  {
    const std::string scratch = "trace_query_selftest_scratch.hsrb";
    auto& fs = hsr::util::Fs::real();
    if (!hsr::trace::save_capture_archive(fs, scratch, {cap}).is_ok()) {
      std::cerr << "selftest: scratch binary save failed\n";
      return 1;
    }
    const auto good = hsr::trace::verify_trace_file(scratch);
    if (!good.is_ok() || !good.value().intact || good.value().flows != 1) {
      std::cerr << "selftest: verify rejected an intact archive\n";
      return 1;
    }
    std::ifstream scratch_in(scratch, std::ios::binary);
    std::ostringstream scratch_bytes;
    scratch_bytes << scratch_in.rdbuf();
    std::string mangled = scratch_bytes.str();
    mangled[mangled.size() / 2] ^= 0x10;
    if (!hsr::util::write_file_atomic(fs, scratch, mangled).is_ok()) {
      std::cerr << "selftest: scratch rewrite failed\n";
      return 1;
    }
    const auto bad = hsr::trace::verify_trace_file(scratch);
    if (bad.is_ok() ||
        bad.status().message().find("frame") == std::string::npos) {
      std::cerr << "selftest: verify did not name the corrupted frame\n";
      return 1;
    }
    (void)fs.remove_file(scratch);
  }

  std::cout << "trace_query selftest ok (" << cap.data.sent_count()
            << " data transmissions, " << lb.scripted_drops
            << " scripted drops)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if (cmd == "selftest") return run_selftest();

  if (cmd == "replay") {
    ReplayOptions opts;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        return (i + 1 < argc) ? argv[++i] : nullptr;
      };
      if (arg == "--down-plan") {
        const char* v = next();
        if (v == nullptr) return usage();
        opts.down_plan_path = v;
      } else if (arg == "--up-plan") {
        const char* v = next();
        if (v == nullptr) return usage();
        opts.up_plan_path = v;
      } else if (arg == "--duration") {
        const char* v = next();
        if (v == nullptr) return usage();
        if (!parse_seconds(v, opts.duration_s)) {
          std::cerr << "replay: bad --duration '" << v << "' (want seconds > 0)\n";
          return 2;
        }
      } else if (arg == "--save") {
        const char* v = next();
        if (v == nullptr) return usage();
        opts.save_path = v;
      } else {
        std::cerr << "replay: unknown option '" << arg << "'\n";
        return usage();
      }
    }
    return run_replay(opts, std::cout);
  }

  if (argc < 3) return usage();

  if (cmd == "ls") return run_ls(argv[2], std::cout);

  if (cmd == "verify") return run_verify(argv[2], std::cout);

  if (cmd == "convert") {
    if (argc < 5) return usage();
    const std::string in_path = argv[2];
    const std::string out_path = argv[3];
    bool to_binary = false;
    bool have_direction = false;
    std::uint64_t nth = 0;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--to-binary") {
        to_binary = true;
        have_direction = true;
      } else if (arg == "--to-text") {
        to_binary = false;
        have_direction = true;
      } else if (arg == "--flow" && i + 1 < argc) {
        if (!hsr::util::parse_number(argv[++i], nth)) {
          std::cerr << "convert: bad --flow '" << argv[i] << "'\n";
          return 2;
        }
      } else {
        std::cerr << "convert: unknown option '" << arg << "'\n";
        return usage();
      }
    }
    if (!have_direction) {
      std::cerr << "convert: need --to-binary or --to-text\n";
      return 2;
    }
    return run_convert(in_path, out_path, to_binary, nth, std::cout);
  }

  // The query commands share "<trace> [args] [--flow N]" argument handling.
  std::uint64_t nth = 0;
  std::vector<std::string> positional;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--flow" && i + 1 < argc) {
      if (!hsr::util::parse_number(argv[++i], nth)) {
        std::cerr << cmd << ": bad --flow '" << argv[i] << "'\n";
        return 2;
      }
    } else {
      positional.push_back(arg);
    }
  }

  const auto cap = hsr::trace::load_flow_capture_any(argv[2], nth);
  if (!cap.is_ok()) {
    std::cerr << cap.status().to_string() << '\n';
    return 1;
  }

  if (cmd == "summary" && positional.empty()) {
    print_summary(cap.value(), std::cout);
    return 0;
  }
  if (cmd == "why") {
    if (positional.size() != 1) return usage();
    std::uint64_t id = 0;
    if (!hsr::util::parse_number(positional[0], id)) {
      std::cerr << "why: bad packet id '" << positional[0] << "'\n";
      return 2;
    }
    return run_why(cap.value(), id, std::cout);
  }
  if (cmd == "losses" && positional.empty()) {
    print_losses(cap.value(), std::cout);
    return 0;
  }
  if (cmd == "ratios" && positional.empty()) {
    print_ratios(cap.value(), std::cout);
    return 0;
  }
  return usage();
}
