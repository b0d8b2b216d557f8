// `campaign`: workload::generate_dataset_streaming over the Table I mix —
// plan, simulate, analyze, encode, commit chunks, rewrite the manifest and
// merge, on `threads` workers.
//
// Traced runs alternate untraced and traced campaigns (the difference is the
// tracing overhead), then replay the campaign on one thread through the
// public calls the engine makes, in the engine's order, timing each one.
// The replay must reproduce the engine's corpus bytes and stats digest.
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "analysis/corpus_stats.h"
#include "analysis/flow_analysis.h"
#include "bench.h"
#include "trace/corpus_writer.h"
#include "trace/trace_binary.h"
#include "util/fs.h"
#include "workload/manifest.h"
#include "workload/scenario.h"

namespace hsrbench {

namespace {

namespace wl = hsr::workload;
using hsr::util::Fs;
using hsr::util::Status;

// What the engine's hooks record about one flow.
struct FlowStamp {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool observed = false;  // quarantined flows are never observed
  std::thread::id worker;
  std::uint64_t events = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t tombstones = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t faults = 0;
  std::uint64_t transmissions = 0;
};

// Installs hooks that stamp each flow's run_flow span on its worker thread:
// configure_flow runs right before run_flow, observe_flow right after it.
// The engine itself is unchanged and the hooks leave every config as is.
// Slot i is written only by the worker that runs flow i and read after the
// engine's pool has joined.
void install_hooks(wl::DatasetSpec& spec, std::vector<FlowStamp>& stamps) {
  spec.configure_flow = [&stamps](std::uint64_t i, wl::FlowRunConfig&) {
    stamps[i].start_ns = now_ns();
  };
  spec.observe_flow = [&stamps](std::uint64_t i, const wl::FlowRunResult& run) {
    FlowStamp& s = stamps[i];
    s.end_ns = now_ns();
    s.observed = true;
    s.worker = std::this_thread::get_id();
    s.events = run.sim_events;
    s.scheduled = run.sim_scheduled;
    s.tombstones = run.sim_tombstones;
    s.retransmissions = run.sender_stats.retransmissions;
    s.timeouts = run.sender_stats.timeouts;
    s.faults = run.faults_injected;
    s.transmissions = run.capture.data.sent_count() + run.capture.acks.sent_count();
  };
}

// Turns the stamps into run_flow spans (workers numbered from 1 in order of
// their first flow) and exact per-campaign counters.
void record_engine(const std::vector<FlowStamp>& stamps, Trace& trace, Report& report) {
  std::vector<std::thread::id> workers;
  std::uint64_t flows = 0;
  std::uint64_t events = 0, scheduled = 0, tombstones = 0;
  std::uint64_t retransmissions = 0, timeouts = 0, faults = 0, transmissions = 0;
  for (const FlowStamp& s : stamps) {
    if (!s.observed) continue;
    std::size_t w = 0;
    while (w < workers.size() && workers[w] != s.worker) ++w;
    if (w == workers.size()) workers.push_back(s.worker);
    trace.add("workload.run_flow", s.start_ns, s.end_ns, static_cast<int>(w + 1));
    ++flows;
    events += s.events;
    scheduled += s.scheduled;
    tombstones += s.tombstones;
    retransmissions += s.retransmissions;
    timeouts += s.timeouts;
    faults += s.faults;
    transmissions += s.transmissions;
  }
  report.counts["engine.flows"] = static_cast<double>(flows);
  report.counts["engine.workers_used"] = static_cast<double>(workers.size());
  report.counts["sim.events"] = static_cast<double>(events);
  report.counts["sim.scheduled"] = static_cast<double>(scheduled);
  report.counts["sim.tombstones"] = static_cast<double>(tombstones);
  report.counts["tcp.retransmissions"] = static_cast<double>(retransmissions);
  report.counts["tcp.timeouts"] = static_cast<double>(timeouts);
  report.counts["fault.triggers"] = static_cast<double>(faults);
  report.counts["engine.transmissions"] = static_cast<double>(transmissions);
}

// Output checks that hold for any correct build: the campaign completed,
// its corpus verifies intact, it holds one flow frame per planned flow that
// was not quarantined, and (same seed) its stats digest equals the previous
// run's. Returns the planned flows that made it into a verified corpus.
std::uint64_t check_campaign(const wl::StreamingDatasetResult& r, std::uint64_t planned,
                             const std::string& previous_digest, Report& report) {
  if (!r.config_status.is_ok()) {
    report.error("campaign config: " + r.config_status.to_string());
    return 0;
  }
  if (!r.io_status.is_ok()) {
    report.error("campaign io: " + r.io_status.to_string());
    return 0;
  }
  auto verified = hsr::trace::verify_trace_file(r.corpus_path);
  if (!verified.is_ok()) {
    report.error("corpus verify: " + verified.status().to_string());
    return 0;
  }
  const hsr::trace::TraceVerifyReport& v = verified.value();
  const std::uint64_t expected = planned - r.quarantined.size();
  bool ok = true;
  if (!v.intact) {
    report.error("corpus is not intact");
    ok = false;
  }
  if (v.flows != expected || r.flows_completed != expected ||
      v.quarantines != r.quarantined.size()) {
    report.error("corpus holds " + std::to_string(v.flows) + " flow frames, want " +
                 std::to_string(expected));
    ok = false;
  }
  if (r.stats.flows() + r.stats.quarantined() != planned) {
    report.error("stats cover " + std::to_string(r.stats.flows() + r.stats.quarantined()) +
                 " flows, want " + std::to_string(planned));
    ok = false;
  }
  if (!previous_digest.empty() && r.stats.to_text() != previous_digest) {
    report.error("stats digest differs between campaigns of one seed");
    ok = false;
  }
  return ok ? expected : 0;
}

wl::StreamingDatasetResult run_engine(const wl::DatasetSpec& spec, const std::string& corpus,
                                      std::uint64_t chunk_flows) {
  wl::StreamingDatasetOptions options;
  options.corpus_path = corpus;
  options.chunk_flows = chunk_flows;
  return wl::generate_dataset_streaming(spec, options);
}

// Flows per worker in the warm-up campaign: one chunk each.
constexpr std::uint64_t kWarmupFlowsPerWorker = 16;

// A small campaign with one chunk on every worker, so the timed campaign
// starts with the code, the allocator's per-thread arenas and the page
// cache warm.
void warm_up(const Args& args, Report& report) {
  const std::string corpus = args.work + "/warmup.hsrb";
  const wl::DatasetSpec spec = campaign_spec(kWarmupFlowsPerWorker * args.threads,
                                             args.duration_s, args.seed, args.threads);
  const wl::StreamingDatasetResult r = run_engine(spec, corpus, kWarmupFlowsPerWorker);
  if (!r.complete()) report.error("warm-up campaign did not complete");
  (void)Fs::real().remove_file(corpus);
}

struct ReplayResult {
  std::string corpus;
  std::string digest;
  bool ok = false;
};

// The engine's per-chunk work on one thread, through the public calls, each
// one timed. Chunk files carry only 'F'/'Q' frames (the engine's 'S' stats
// sidecars are stripped by the merge anyway); the stats are absorbed here in
// flow order, which is the order the engine's merge absorbs them in.
ReplayResult replay(const Args& args, const wl::DatasetSpec& spec, Trace& trace,
                    Report& report) {
  Fs& fs = Fs::real();
  ReplayResult out;
  out.corpus = args.work + "/replay.hsrb";
  const std::string work_dir = args.work + "/replay.work";
  const wl::DatasetPlan plan(spec);
  const std::uint64_t n = plan.flow_count();
  const std::uint64_t chunk_flows = wl::StreamingDatasetOptions::kDefaultChunkFlows;
  const std::uint64_t chunks = (n + chunk_flows - 1) / chunk_flows;

  Status status = fs.remove_all(work_dir);
  if (status.is_ok()) status = fs.create_directories(work_dir);
  wl::CampaignManifest manifest;
  manifest.spec_digest = wl::manifest_digest("perfbench replay");
  manifest.total_flows = n;
  manifest.chunk_flows = chunk_flows;
  const std::string manifest_path = work_dir + "/manifest.hsrman";
  const auto save_manifest = [&] {
    return timed(&trace, "workload.save_campaign_manifest",
                 [&] { return wl::save_campaign_manifest(fs, manifest_path, manifest); });
  };
  if (status.is_ok()) status = save_manifest();

  hsr::analysis::CorpusStats stats;
  std::vector<std::string> chunk_paths;
  std::uint64_t flow_frames = 0;
  std::uint64_t encoded_bytes = 0;
  std::uint64_t queue_drops = 0;
  for (std::uint64_t ci = 0; status.is_ok() && ci < chunks; ++ci) {
    const std::uint64_t first = ci * chunk_flows;
    const std::uint64_t count = std::min(chunk_flows, n - first);
    chunk_paths.push_back(work_dir + "/chunk-" + std::to_string(ci) + ".hsrb");
    hsr::trace::ChunkFileWriter writer(fs, chunk_paths.back());
    status = writer.open();
    for (std::uint64_t i = first; status.is_ok() && i < first + count; ++i) {
      const wl::FlowTask task =
          timed(&trace, "workload.plan_task", [&] { return plan.task(i); });
      wl::FlowRunConfig cfg;
      cfg.profile = task.profile;
      cfg.duration = task.duration;
      cfg.seed = task.seed;
      cfg.max_sim_events = spec.max_sim_events_per_flow;
      wl::FlowRunResult run = timed(&trace, "replay.run_flow", [&] { return wl::run_flow(cfg); });
      if (!run.status.is_ok()) {
        hsr::trace::QuarantineRecord q;
        q.flow_index = i;
        q.provider = hsr::radio::provider_name(task.profile.provider);
        q.campaign = task.campaign;
        q.status_code = static_cast<std::int32_t>(run.status.code());
        q.message = run.status.message();
        status = writer.append_quarantine(q);
        stats.absorb_quarantine();
        continue;
      }
      const hsr::analysis::FlowAnalysis analysis = timed(
          &trace, "analysis.analyze_flow", [&] { return hsr::analysis::analyze_flow(run.capture); });
      const hsr::analysis::LossBreakdown breakdown =
          timed(&trace, "analysis.loss_breakdown",
                [&] { return hsr::analysis::loss_breakdown(run.capture); });
      const bool high_speed = cfg.profile.mobility == hsr::radio::Mobility::kHighSpeed;
      timed(&trace, "analysis.absorb", [&] {
        stats.absorb(hsr::analysis::FlowStatsSample::from_flow(analysis, breakdown, high_speed,
                                                               run.bytes_captured));
      });
      queue_drops += breakdown.data_dropped_by(hsr::net::DropCategory::kQueueOverflow);
      run.capture.flow = static_cast<hsr::net::FlowId>(i);
      status = timed(&trace, "trace.encode", [&] { return writer.append_flow(run.capture); });
      ++flow_frames;
    }
    if (!status.is_ok()) break;
    const auto info = timed(&trace, "trace.chunk_commit", [&] { return writer.commit(); });
    if (!info.is_ok()) {
      status = info.status();
      break;
    }
    encoded_bytes += info.value().bytes;
    manifest.chunks.push_back(wl::ChunkEntry{ci, first, count, info.value().flows,
                                             info.value().quarantines, info.value().bytes,
                                             info.value().crc32c});
    status = save_manifest();
  }

  if (status.is_ok()) {
    const auto merged = timed(&trace, "trace.merge", [&] {
      return hsr::trace::merge_corpus_chunks(
          fs, chunk_paths, out.corpus, flow_frames,
          [](char, const std::string&) { return Status::ok(); });
    });
    if (merged.is_ok()) {
      report.counts["replay.corpus_bytes"] = static_cast<double>(merged.value().bytes);
    } else {
      status = merged.status();
    }
  }
  (void)fs.remove_all(work_dir);
  if (!status.is_ok()) {
    report.error("replay: " + status.to_string());
    return out;
  }
  report.counts["replay.encoded_bytes"] = static_cast<double>(encoded_bytes);
  report.counts["net.queue_overflow_drops"] = static_cast<double>(queue_drops);
  out.digest = stats.to_text();
  out.ok = true;
  return out;
}

// CRC-32C of a whole file, timed as util's share of the run.
std::uint32_t timed_crc(const std::string& path, Trace& trace, Report& report) {
  const auto crc = timed(&trace, "util.crc32c_of_file",
                         [&] { return hsr::trace::crc32c_of_file(path); });
  if (!crc.is_ok()) {
    report.error("crc32c: " + crc.status().to_string());
    return 0;
  }
  return crc.value();
}

}  // namespace

void run_campaign(const Args& args, Report& report) {
  Fs& fs = Fs::real();
  wl::DatasetSpec spec;
  std::uint64_t planned = 0;
  const std::string corpus = args.work + "/campaign.hsrb";
  std::string digest;
  double measured = 0.0;
  bool traced_any = false;
  for (int iter = 0; measured < args.seconds || report.setup_s.size() < kSetups ||
                     (args.trace && !traced_any);
       ++iter) {
    // Every timed campaign gets its own set-up, so setup_s is a median over
    // set-ups spread through the whole run, like the timed units.
    const std::int64_t s0 = now_ns();
    spec = campaign_spec(args.flows, args.duration_s, args.seed, args.threads);
    planned = wl::DatasetPlan(spec).flow_count();
    warm_up(args, report);
    report.setup_s.push_back(seconds_since(s0));

    const bool traced = args.trace && iter % 2 == 1;
    wl::DatasetSpec run_spec = spec;
    std::vector<FlowStamp> stamps;
    if (traced) {
      stamps.resize(planned);
      install_hooks(run_spec, stamps);
    }
    const bool rss = start_unit_rss();
    const std::int64_t t0 = now_ns();
    const wl::StreamingDatasetResult r = run_engine(run_spec, corpus, 0);
    const std::int64_t t1 = now_ns();
    const double peak = rss ? unit_peak_rss_mb() : 0.0;
    const double wall = static_cast<double>(t1 - t0) * 1e-9;
    measured += wall;
    if (traced) {
      Trace trace(report, iter);
      trace.add("workload.generate_dataset_streaming", t0, t1);
      record_engine(stamps, trace, report);
      report.counts["workload.chunks_total"] = static_cast<double>(r.chunks_total);
      traced_any = true;
    }
    const std::uint64_t ok = check_campaign(r, planned, digest, report);
    digest = r.stats.to_text();
    report.attempted += planned;
    report.failed += planned - ok;
    report.iters.push_back(Report::Iter{traced, wall, r.flows_completed, r.corpus_bytes, peak});
  }
  const std::uint64_t chunk_flows = wl::StreamingDatasetOptions::kDefaultChunkFlows;
  report.info.emplace_back("flows", std::to_string(planned));
  report.info.emplace_back("chunk_flows", std::to_string(chunk_flows));
  report.info.emplace_back("chunks", std::to_string((planned + chunk_flows - 1) / chunk_flows));

  if (args.trace) {
    const int iter = static_cast<int>(report.iters.size());
    report.info.emplace_back("replay_iter", std::to_string(iter));
    Trace trace(report, iter);
    const std::int64_t t0 = now_ns();
    const ReplayResult rep = replay(args, spec, trace, report);
    trace.add("replay.total", t0, now_ns());
    report.attempted += planned;
    bool same = rep.ok;
    if (rep.ok) {
      const auto engine_size = fs.file_size(corpus);
      const auto replay_size = fs.file_size(rep.corpus);
      const std::uint32_t engine_crc = timed_crc(corpus, trace, report);
      const std::uint32_t replay_crc = timed_crc(rep.corpus, trace, report);
      if (!engine_size.is_ok() || !replay_size.is_ok() ||
          engine_size.value() != replay_size.value() || engine_crc != replay_crc) {
        report.error("replay corpus bytes differ from the engine's");
        same = false;
      } else {
        report.counts["util.crc_bytes"] = 2.0 * static_cast<double>(engine_size.value());
      }
      if (rep.digest != digest) {
        report.error("replay stats digest differs from the engine's");
        same = false;
      }
    }
    if (!same) report.failed += planned;
    (void)fs.remove_file(rep.corpus);
  }
  (void)fs.remove_file(corpus);
}

}  // namespace hsrbench
