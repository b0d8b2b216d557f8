// corpus_campaign — run a paper-shaped flow campaign of arbitrary size in
// bounded memory and archive it as a single hsrtrace-b2 corpus file,
// crash-safely.
//
// The in-memory generate_dataset() keeps every FlowCapture alive until the
// aggregation pass, which caps campaigns at whatever RAM holds; this tool
// drives generate_dataset_streaming() instead: workers run fixed chunks of
// flows, commit each chunk atomically (tmp + fsync + rename) with a manifest
// checkpoint, and a deterministic merge produces a corpus byte-identical for
// ANY --threads value. A campaign killed or starved of disk mid-run leaves
// its committed chunks and manifest behind; re-running with --resume
// verifies them (size + CRC-32C), re-runs only the missing flows, and yields
// the same corpus and stats digest an uninterrupted run would have.
//
//   corpus_campaign --flows N [--duration S] [--threads K]
//                   --out corpus.hsrb [--stats-out stats.txt] [--seed X]
//                   [--chunk-flows C] [--work-dir DIR] [--resume]
//                   [--io-fault plan.txt]
//
// --io-fault loads an hsriofaultplan-v1 script and injects it into every
// durable write the campaign performs (chunks, manifest, merge, stats) —
// the deterministic harness the crash-safety CI jobs drive.
//
// Flow counts are distributed over the paper's four Table I campaigns in
// proportion (52:73:65:65) with ~1/8 of flows reserved for the stationary
// control corpus, so a scaled campaign keeps the published mix. The exit
// status is non-zero when the campaign is incomplete (config rejection,
// chunk/merge I/O failure, or any quarantined flow); on failure no partial
// corpus or stats file appears under the output names.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "analysis/corpus_stats.h"
#include "fault/io_fault.h"
#include "numeric_flag.h"
#include "util/fs.h"
#include "util/status.h"
#include "util/time.h"
#include "workload/dataset.h"

namespace {

int usage() {
  std::cerr << "usage: corpus_campaign --flows N --out FILE\n"
               "                       [--duration S] [--threads K]\n"
               "                       [--stats-out FILE] [--seed X]\n"
               "                       [--chunk-flows C] [--work-dir DIR]\n"
               "                       [--resume] [--io-fault PLAN]\n"
               "  N below 7 plans 7 flows: one per Table I campaign and one\n"
               "  stationary control per provider.\n";
  return 2;
}

using hsr::tools::kMaxFlagCount;
using hsr::tools::kMaxFlagSeconds;
using hsr::tools::kMaxFlagSeed;
using hsr::tools::kMinFlagSeconds;
using hsr::tools::parse_flag;

// Shapes a DatasetSpec with `flows` planned flows, or 7 when `flows` is
// below 7: the stationary control corpus gets ~1/8 (at least one per
// provider), and the remainder is split over the four Table I campaigns
// (at least one each) by largest-remainder apportionment of the paper's
// 52:73:65:65 mix.
hsr::workload::DatasetSpec shape_spec(std::uint64_t flows) {
  using hsr::workload::DatasetSpec;
  DatasetSpec spec = DatasetSpec::paper_table1(1.0);
  constexpr unsigned kProviders = 3;  // distinct providers -> stationary blocks

  std::uint64_t stationary_pp = flows / (8 * kProviders);
  if (stationary_pp == 0) stationary_pp = 1;
  if (flows <= kProviders + spec.campaigns.size()) stationary_pp = 1;
  std::uint64_t remaining = flows > stationary_pp * kProviders
                                ? flows - stationary_pp * kProviders
                                : spec.campaigns.size();

  const std::uint64_t weights[] = {52, 73, 65, 65};
  const std::uint64_t weight_sum = 255;
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < spec.campaigns.size(); ++i) {
    std::uint64_t share = remaining * weights[i] / weight_sum;
    if (share == 0) share = 1;
    spec.campaigns[i].flows = static_cast<unsigned>(share);
    assigned += share;
  }
  // Largest campaign absorbs the apportionment remainder (either sign).
  auto& top = spec.campaigns[1];
  if (assigned < remaining) {
    top.flows += static_cast<unsigned>(remaining - assigned);
  } else if (assigned > remaining && top.flows > assigned - remaining) {
    top.flows -= static_cast<unsigned>(assigned - remaining);
  }
  spec.stationary_flows_per_provider = static_cast<unsigned>(stationary_pp);
  return spec;
}

// True when `dir` will be a directory once the campaign has started: it is
// "" (the working directory), an existing directory, or an ancestor of
// `work_dir`, which the campaign creates with every missing ancestor before
// any flow runs.
bool directory_ready(const std::filesystem::path& dir,
                     const std::filesystem::path& work_dir) {
  std::error_code ec;
  if (dir.empty() || std::filesystem::is_directory(dir, ec)) return true;
  const std::filesystem::path d = dir.lexically_normal();
  const std::filesystem::path w = work_dir.lexically_normal();
  return std::mismatch(d.begin(), d.end(), w.begin(), w.end()).first == d.end();
}

}  // namespace

int main(int argc, char** argv) {
  unsigned flows = 0;
  double duration_s = 0.0;  // 0 = keep the spec's paper-scale default
  unsigned threads = 0;
  std::uint64_t seed = 0;
  bool have_seed = false;
  unsigned chunk_flows = 0;
  bool resume = false;
  std::string out_path;
  std::string stats_path;
  std::string work_dir;
  std::string io_fault_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--flows" && has_value) {
      if (!parse_flag("--flows", argv[++i], 1u, kMaxFlagCount, flows)) {
        return usage();
      }
    } else if (arg == "--duration" && has_value) {
      if (!parse_flag("--duration", argv[++i], kMinFlagSeconds, kMaxFlagSeconds, duration_s)) {
        return usage();
      }
    } else if (arg == "--threads" && has_value) {
      if (!parse_flag("--threads", argv[++i], 0u, hsr::workload::kMaxBenchThreads,
                      threads)) {
        return usage();
      }
    } else if (arg == "--seed" && has_value) {
      if (!parse_flag("--seed", argv[++i], std::uint64_t{0}, kMaxFlagSeed, seed)) {
        return usage();
      }
      have_seed = true;
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--stats-out" && has_value) {
      stats_path = argv[++i];
    } else if (arg == "--chunk-flows" && has_value) {
      if (!parse_flag("--chunk-flows", argv[++i], 1u, kMaxFlagCount, chunk_flows)) {
        return usage();
      }
    } else if (arg == "--work-dir" && has_value) {
      work_dir = argv[++i];
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--io-fault" && has_value) {
      io_fault_path = argv[++i];
    } else {
      std::cerr << "corpus_campaign: unknown option '" << arg << "'\n";
      return usage();
    }
  }
  if (flows == 0 || out_path.empty()) return usage();

  hsr::workload::DatasetSpec spec = shape_spec(flows);
  const std::uint64_t planned = hsr::workload::DatasetPlan(spec).flow_count();
  if (planned != flows) {
    std::cerr << "corpus_campaign: --flows " << flows << " plans " << planned
              << " flows (one per Table I campaign and one stationary control per"
                 " provider)\n";
  }
  if (duration_s > 0.0) {
    spec.flow_duration_min = hsr::util::Duration::from_seconds(duration_s);
    spec.flow_duration_max = spec.flow_duration_min;
  }
  spec.threads = threads;
  if (have_seed) spec.seed = seed;

  hsr::workload::StreamingDatasetOptions options;
  options.corpus_path = out_path;
  options.work_dir = work_dir;
  options.chunk_flows = chunk_flows;
  options.resume = resume;

  // With --io-fault every durable write (chunks, manifest, merge, stats)
  // goes through the scripted fault backend instead of the real fs.
  std::unique_ptr<hsr::fault::FaultInjectingFs> faulty_fs;
  if (!io_fault_path.empty()) {
    auto plan = hsr::fault::IoFaultPlan::load(io_fault_path);
    if (!plan.is_ok()) {
      std::cerr << "io-fault: " << plan.status().to_string() << '\n';
      return 2;
    }
    faulty_fs = std::make_unique<hsr::fault::FaultInjectingFs>(
        std::move(plan.value()), hsr::util::Fs::real());
    options.fs = faulty_fs.get();
  }
  hsr::util::Fs& fs = options.fs != nullptr ? *options.fs : hsr::util::Fs::real();
  // The merge writes --out and the stats save writes --stats-out only after
  // the whole campaign: refuse now a path whose parent will not be a
  // directory by then, or a directory given as --stats-out.
  const auto parent_ready = [&](const char* flag, const std::string& path) {
    const std::filesystem::path parent = std::filesystem::path(path).parent_path();
    if (directory_ready(parent, work_dir.empty() ? out_path + ".work" : work_dir)) return true;
    std::cerr << flag << ": parent '" << parent.string() << "' is not an existing directory\n";
    return false;
  };
  if (!parent_ready("--out", out_path)) return 2;
  if (!stats_path.empty()) {
    if (fs.exists(stats_path)) {
      const auto size = fs.file_size(stats_path);
      if (!size.is_ok()) {
        std::cerr << "stats-out: not a regular file: " << size.status().message()
                  << '\n';
        return 2;
      }
    }
    if (!parent_ready("--stats-out", stats_path)) return 2;
  }

  const auto result = hsr::workload::generate_dataset_streaming(spec, options);

  if (!result.config_status.is_ok()) {
    std::cerr << "config: " << result.config_status.to_string() << '\n';
    return 1;
  }
  if (!result.io_status.is_ok()) {
    std::cerr << "io: " << result.io_status.to_string() << '\n';
    return 1;
  }

  std::cout << "corpus " << result.corpus_path << '\n'
            << "flows " << result.flows_completed << " quarantined "
            << result.quarantined.size() << '\n'
            << "corpus_bytes " << result.corpus_bytes;
  if (result.flows_completed > 0) {
    std::cout << " bytes_per_flow " << result.corpus_bytes / result.flows_completed;
  }
  std::cout << '\n'
            << "sim_events " << result.total_sim_events << '\n'
            << "chunks " << result.chunks_total << " reused "
            << result.chunks_reused << '\n';

  const std::string digest = result.stats.to_text();
  if (!stats_path.empty()) {
    const auto saved = hsr::analysis::save_corpus_stats(fs, stats_path, result.stats);
    if (!saved.is_ok()) {
      std::cerr << "stats-out: " << saved.to_string() << '\n';
      return 1;
    }
    std::cout << "stats " << stats_path << '\n';
  } else {
    std::cout << digest;
  }

  for (const auto& q : result.quarantined) {
    std::cerr << "quarantined flow " << q.flow_index << " (" << q.provider << ", "
              << q.campaign << "): " << q.status.to_string() << '\n';
  }
  return result.complete() ? 0 : 1;
}
