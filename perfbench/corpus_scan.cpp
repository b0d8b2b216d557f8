// `corpus_scan`: re-analysis of an archived campaign corpus on one thread —
// BinaryTraceReader::next -> analysis::analyze_flow -> loss_breakdown ->
// CorpusStats::absorb. No simulation runs, so decode and analysis changes
// show at full strength.
//
// The set-up (a separate process, so the scan's peak RSS is its own) builds
// the corpus with the `campaign` engine from the same build and seed, and
// keeps the campaign's stats digest. Every scan must recompute that digest
// byte for byte.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/corpus_stats.h"
#include "analysis/flow_analysis.h"
#include "bench.h"
#include "trace/corpus_writer.h"
#include "trace/trace_binary.h"
#include "util/fs.h"

namespace hsrbench {

namespace {

namespace wl = hsr::workload;
using hsr::trace::BinaryTraceReader;

struct ScanResult {
  std::uint64_t declared = 0;  // flow frames the corpus header declares
  std::uint64_t flows = 0;     // flow frames decoded and absorbed
  std::uint64_t transmissions = 0;
  std::string digest;
  std::string error;
};

ScanResult scan_once(const std::string& path, const wl::DatasetPlan& plan, Trace* trace) {
  ScanResult out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.error = "cannot open " + path;
    return out;
  }
  BinaryTraceReader reader(in);
  const hsr::util::Status opened = reader.open();
  if (!opened.is_ok()) {
    out.error = "corpus header: " + opened.to_string();
    return out;
  }
  out.declared = reader.declared_flow_count();

  hsr::analysis::CorpusStats stats;
  hsr::trace::FlowCapture capture;
  hsr::trace::QuarantineRecord quarantine;
  for (;;) {
    const std::int64_t t0 = trace != nullptr ? now_ns() : 0;
    const auto frame = reader.next(&capture, &quarantine);
    if (!frame.is_ok()) {
      out.error = "decode: " + frame.status().to_string();
      break;
    }
    if (frame.value() == BinaryTraceReader::Frame::kEnd) break;
    if (frame.value() == BinaryTraceReader::Frame::kTorn) {
      out.error = "corpus has a torn tail";
      break;
    }
    if (frame.value() == BinaryTraceReader::Frame::kQuarantine) {
      stats.absorb_quarantine();
      continue;
    }
    if (trace != nullptr) trace->add("trace.decode", t0, now_ns());
    // Campaign corpora carry the planned flow index as the FlowId.
    if (capture.flow >= plan.flow_count()) {
      out.error = "flow id " + std::to_string(capture.flow) + " is outside the plan";
      break;
    }
    const bool high_speed =
        plan.task(capture.flow).profile.mobility == hsr::radio::Mobility::kHighSpeed;
    std::uint64_t bytes_captured = 0;
    for (const auto& tx : capture.data.transmissions()) bytes_captured += tx.packet.size_bytes;
    for (const auto& tx : capture.acks.transmissions()) bytes_captured += tx.packet.size_bytes;

    const hsr::analysis::FlowAnalysis analysis = timed(
        trace, "analysis.analyze_flow", [&] { return hsr::analysis::analyze_flow(capture); });
    const hsr::analysis::LossBreakdown breakdown = timed(
        trace, "analysis.loss_breakdown", [&] { return hsr::analysis::loss_breakdown(capture); });
    timed(trace, "analysis.absorb", [&] {
      stats.absorb(hsr::analysis::FlowStatsSample::from_flow(analysis, breakdown, high_speed,
                                                             bytes_captured));
    });
    ++out.flows;
    out.transmissions += capture.data.sent_count() + capture.acks.sent_count();
  }
  out.digest = stats.to_text();
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

void run_scan_setup(const Args& args, Report& report) {
  std::string digest;
  for (unsigned k = 0; k < kSetups; ++k) {
    const std::int64_t t0 = now_ns();
    const wl::DatasetSpec spec =
        campaign_spec(args.flows, args.duration_s, args.seed, args.threads);
    wl::StreamingDatasetOptions options;
    options.corpus_path = scan_corpus_path(args);
    const wl::StreamingDatasetResult r = wl::generate_dataset_streaming(spec, options);
    report.setup_s.push_back(seconds_since(t0));
    if (!r.complete()) {
      report.error("corpus campaign did not complete");
      return;
    }
    if (!digest.empty() && r.stats.to_text() != digest) {
      report.error("corpus campaigns of one seed disagree on the stats digest");
    }
    digest = r.stats.to_text();
    if (k + 1 == kSetups) {
      const hsr::util::Status saved =
          hsr::analysis::save_corpus_stats(scan_digest_path(args), r.stats);
      if (!saved.is_ok()) report.error("saving the stats digest: " + saved.to_string());
      report.info.emplace_back("chunks", std::to_string(r.chunks_total));
    }
  }
}

void run_corpus_scan(const Args& args, Report& report) {
  const wl::DatasetPlan plan(campaign_spec(args.flows, args.duration_s, args.seed, 1));
  const std::string corpus = scan_corpus_path(args);
  const std::string expected = read_file(scan_digest_path(args));
  const auto size = hsr::util::Fs::real().file_size(corpus);
  if (expected.empty() || !size.is_ok()) {
    report.error("no corpus to scan; run the scan set-up first");
    return;
  }
  const std::uint64_t corpus_bytes = size.value();
  report.info.emplace_back("flows", std::to_string(plan.flow_count()));

  double measured = 0.0;
  bool traced_any = false;
  for (int iter = 0; measured < args.seconds || (args.trace && !traced_any); ++iter) {
    const bool traced = args.trace && iter % 2 == 1;
    Trace trace(report, iter);
    const bool rss = start_unit_rss();
    const std::int64_t t0 = now_ns();
    const ScanResult s = scan_once(corpus, plan, traced ? &trace : nullptr);
    const double wall = seconds_since(t0);
    const double peak = rss ? unit_peak_rss_mb() : 0.0;
    measured += wall;
    std::uint64_t ok = s.flows;
    if (!s.error.empty()) report.error(s.error);
    if (s.error.empty() && s.flows != s.declared) {
      report.error("decoded " + std::to_string(s.flows) + " flows, the header declares " +
                   std::to_string(s.declared));
    }
    if (s.error.empty() && s.digest != expected) {
      report.error("recomputed stats digest differs from the campaign's");
      ok = 0;
    }
    report.attempted += s.declared;
    report.failed += s.declared - std::min(ok, s.declared);
    report.iters.push_back(Report::Iter{traced, wall, s.flows, corpus_bytes, peak});
    if (traced) {
      trace.add("corpus_scan.total", t0, now_ns());
      report.counts["trace.transmissions"] = static_cast<double>(s.transmissions);
      report.counts["scan.flows"] = static_cast<double>(s.flows);
      traced_any = true;
    }
  }

  if (args.trace) {
    Trace trace(report, static_cast<int>(report.iters.size()));
    const auto crc = timed(&trace, "util.crc32c_of_file",
                           [&] { return hsr::trace::crc32c_of_file(corpus); });
    if (crc.is_ok()) {
      report.counts["util.crc_bytes"] = static_cast<double>(corpus_bytes);
    } else {
      report.error("crc32c: " + crc.status().to_string());
    }
  }
}

}  // namespace hsrbench
