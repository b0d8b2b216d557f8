// Trace-format benchmark: text ("hsrtrace-v2") vs binary columnar
// ("hsrtrace-b2", the only binary format) serialization throughput and size.
//
// At 10^5-10^6-flow campaign scale the corpus I/O — not the simulator — is
// the wall, so this bench records the numbers that justify the binary
// format: write and read throughput (flows/s and MB/s of the format's own
// bytes) and bytes per flow for both formats, over identical captures, plus
// the throughput of util::crc32c over the encoded archive (every corpus byte
// is checksummed at write, commit and verify).
//
//   ./bench_trace                 # full run: 16 flows x 60 s sim, best of 3
//   ./bench_trace --quick         # CI smoke: 4 flows x 10 s sim, 1 rep
//   python3 tools/bench_compare.py --ab parent/bench_trace bench_trace
//
// Every rep of every section times whole passes over all the captures for
// at least kMinRepSeconds (0.25 s), not one 20-100 ms pass. Separate runs
// still drift with the host's load, so compare two builds in alternating
// runs (bench_compare.py --ab).
//
// Emits bench_out/BENCH_trace.json (schema_version 3: flat best-of-N
// "metrics", per-metric "spread"; "_per_s" keys are throughputs — see
// bench::Summary in bench/common.h for the conventions bench_compare.py
// keys off).
//
// The size ratio is deterministic for a given seed, so the bench FAILS
// (exit 1) if the binary format is not at least 4x smaller than text —
// the corpus-scale storage contract, pinned here and in the trace_query
// selftest.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "radio/profiles.h"
#include "trace/trace_binary.h"
#include "trace/trace_io.h"
#include "util/crc32c.h"
#include "workload/scenario.h"

namespace {

using hsr::bench::seconds_since;

// Each rep times whole passes for at least this long.
constexpr double kMinRepSeconds = 0.25;

// flows/s of `pass`, which handles all `flows` captures once: best of
// `reps` reps of at least kMinRepSeconds each, with the spread of every rep.
template <class Pass>
hsr::bench::BestOf<double> flows_per_s(int reps, std::uint64_t flows, Pass pass) {
  const auto rep = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t passes = 0;
    double wall = 0.0;
    do {
      pass();
      ++passes;
      wall = seconds_since(t0);
    } while (wall < kMinRepSeconds);
    return static_cast<double>(passes * flows) / wall;
  };
  return hsr::bench::best_of(reps, rep, std::identity{});
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::filesystem::path json_path = hsr::bench::out_dir() / "BENCH_trace.json";
  hsr::bench::header(quick ? "Trace formats: text vs binary (quick smoke)"
                           : "Trace formats: text vs binary");

  const std::uint64_t flow_count = quick ? 4 : 16;
  const double flow_secs = quick ? 10.0 : 60.0;
  const int reps = quick ? 1 : 3;

  // Identical captures feed both formats: organic high-speed LTE flows,
  // deterministically seeded off HSR_BENCH_SEED.
  std::cerr << "[bench] simulating " << flow_count << " flows x " << flow_secs
            << " s ..." << std::flush;
  std::vector<hsr::trace::FlowCapture> captures;
  captures.reserve(flow_count);
  std::uint64_t transmissions = 0;
  for (std::uint64_t i = 0; i < flow_count; ++i) {
    hsr::workload::FlowRunConfig cfg;
    cfg.profile = hsr::radio::mobile_lte_highspeed();
    cfg.duration = hsr::util::Duration::from_seconds(flow_secs);
    cfg.seed = hsr::bench::seed() * 1000 + i;
    auto run = hsr::workload::run_flow(cfg);
    run.capture.flow = static_cast<hsr::net::FlowId>(i + 1);
    transmissions += run.capture.data.transmissions().size() +
                     run.capture.acks.transmissions().size();
    captures.push_back(std::move(run.capture));
  }
  std::cerr << " done (" << transmissions << " transmissions)\n";

  // --- size: serialize once, measure both formats' bytes --------------------
  std::vector<std::string> text_archives(flow_count);
  for (std::uint64_t i = 0; i < flow_count; ++i) {
    std::ostringstream os;
    hsr::trace::write_flow_capture(os, captures[i]);
    text_archives[i] = os.str();
  }
  std::uint64_t text_bytes = 0;
  for (const auto& a : text_archives) text_bytes += a.size();

  std::ostringstream bin_once;
  hsr::trace::write_binary_trace_header(bin_once, flow_count);
  {
    std::uint64_t seq = 0;
    for (const auto& cap : captures) hsr::trace::write_flow_frame(bin_once, cap, seq++);
  }
  const std::string binary_corpus = bin_once.str();
  const std::uint64_t binary_bytes = binary_corpus.size();

  const double size_ratio =
      static_cast<double>(text_bytes) / static_cast<double>(binary_bytes);

  const double text_bpf = static_cast<double>(text_bytes) / static_cast<double>(flow_count);
  const double bin_bpf = static_cast<double>(binary_bytes) / static_cast<double>(flow_count);
  // A section's MB/s of its format's own bytes is its flows/s times these.
  const double text_mb_per_flow = text_bpf / 1e6;
  const double bin_mb_per_flow = bin_bpf / 1e6;

  // --- checksum throughput over the binary archive ---------------------------
  const std::uint32_t archive_crc = hsr::util::crc32c(binary_corpus);
  const auto crc = flows_per_s(reps, flow_count, [&] {
    if (hsr::util::crc32c(binary_corpus) != archive_crc) std::abort();
  });
  const double crc_mb_per_s = crc.best * bin_mb_per_flow;

  // --- write throughput ------------------------------------------------------
  const auto text_write = flows_per_s(reps, flow_count, [&] {
    std::ostringstream os;
    for (const auto& cap : captures) hsr::trace::write_flow_capture(os, cap);
    if (os.str().size() != text_bytes) std::abort();
  });
  const auto bin_write = flows_per_s(reps, flow_count, [&] {
    std::ostringstream os;
    hsr::trace::write_binary_trace_header(os, flow_count);
    std::uint64_t seq = 0;
    for (const auto& cap : captures) hsr::trace::write_flow_frame(os, cap, seq++);
    if (os.str().size() != binary_bytes) std::abort();
  });

  // --- read throughput -------------------------------------------------------
  const auto text_read = flows_per_s(reps, flow_count, [&] {
    std::uint64_t total = 0;
    for (const auto& a : text_archives) {
      std::istringstream is(a);
      const auto cap = hsr::trace::read_flow_capture(is);
      if (!cap.is_ok()) std::abort();
      total += cap.value().data.transmissions().size();
    }
    if (total == 0) std::abort();
  });
  const auto bin_read = flows_per_s(reps, flow_count, [&] {
    std::istringstream is(binary_corpus);
    const auto corpus = hsr::trace::read_binary_corpus(is);
    if (!corpus.is_ok() || corpus.value().flows.size() != flow_count) std::abort();
  });

  std::cout << "size         text " << text_bytes << " B (" << text_bpf
            << " B/flow)  binary " << binary_bytes << " B (" << bin_bpf
            << " B/flow)  ratio " << size_ratio << "x\n";
  std::cout << "write        text " << text_write.best << " flows/s ("
            << text_write.best * text_mb_per_flow << " MB/s)  binary " << bin_write.best
            << " flows/s (" << bin_write.best * bin_mb_per_flow << " MB/s)\n";
  std::cout << "read         text " << text_read.best << " flows/s ("
            << text_read.best * text_mb_per_flow << " MB/s)  binary " << bin_read.best
            << " flows/s (" << bin_read.best * bin_mb_per_flow << " MB/s)\n";
  std::cout << "crc32c       " << crc_mb_per_s << " MB/s over the binary archive\n";

  hsr::bench::Summary summary;
  summary.fact("bench", "trace");
  summary.fact("schema_version", 3);
  summary.fact("quick", quick);
  summary.fact("reps", reps);
  summary.fact("seed", hsr::bench::seed());
  summary.fact("hardware_concurrency", std::thread::hardware_concurrency());
  summary.fact("flows", flow_count);
  summary.fact("transmissions", transmissions);
  summary.rate("text_write_flows_per_s", text_write.best, text_write.spread);
  summary.metric("text_write_mb_per_s", text_write.best * text_mb_per_flow);
  summary.rate("binary_write_flows_per_s", bin_write.best, bin_write.spread);
  summary.metric("binary_write_mb_per_s", bin_write.best * bin_mb_per_flow);
  summary.rate("text_read_flows_per_s", text_read.best, text_read.spread);
  summary.metric("text_read_mb_per_s", text_read.best * text_mb_per_flow);
  summary.rate("binary_read_flows_per_s", bin_read.best, bin_read.spread);
  summary.metric("binary_read_mb_per_s", bin_read.best * bin_mb_per_flow);
  summary.rate("crc32c_mb_per_s", crc_mb_per_s, crc.spread.scaled(bin_mb_per_flow));
  summary.metric("text_bytes_per_flow", text_bpf);
  summary.metric("binary_bytes_per_flow", bin_bpf);
  summary.metric("text_to_binary_size_ratio", size_ratio);
  summary.write(json_path);

  if (size_ratio < 4.0) {
    std::cerr << "FAIL: binary format is not 4x smaller than text ("
              << binary_bytes << " vs " << text_bytes << " bytes)\n";
    return 1;
  }
  if (bin_write.best <= text_write.best) {
    std::cerr << "WARNING: binary writes were not faster than text this run ("
              << bin_write.best << " vs " << text_write.best
              << " flows/s)\n";
  }
  return 0;
}
