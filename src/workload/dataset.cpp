#include "workload/dataset.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "trace/corpus_writer.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/text.h"
#include "util/thread_pool.h"
#include "workload/manifest.h"

namespace hsr::workload {

DatasetSpec DatasetSpec::paper_table1(double scale) {
  scale = std::clamp(scale, 0.01, 1.0);
  const auto scaled = [scale](unsigned n) {
    return std::max(1u, static_cast<unsigned>(n * scale));
  };

  DatasetSpec spec;
  spec.campaigns = {
      {"January 2015", "Samsung Note 3", radio::mobile_lte_highspeed(), scaled(52), 8},
      {"October 2015", "Samsung Note 3", radio::mobile_lte_highspeed(), scaled(73), 24},
      {"October 2015", "Samsung Galaxy S4", radio::unicom_3g_highspeed(), scaled(65), 24},
      {"October 2015", "Samsung Galaxy S4", radio::telecom_3g_highspeed(), scaled(65), 24},
  };
  spec.stationary_flows_per_provider = std::max(3u, scaled(12));
  return spec;
}

DatasetPlan::DatasetPlan(const DatasetSpec& spec)
    : seed_(spec.seed),
      duration_min_s_(spec.flow_duration_min.to_seconds()),
      duration_max_s_(spec.flow_duration_max.to_seconds()) {
  // Same layout the legacy planning loop produced: campaign blocks in spec
  // order, then one stationary block per distinct provider.
  for (const auto& campaign : spec.campaigns) {
    blocks_.push_back(Block{flow_count_, campaign.flows, campaign.profile,
                            campaign.campaign, campaign.phone, false});
    flow_count_ += campaign.flows;
  }
  std::vector<radio::ProviderProfile> seen;
  for (const auto& campaign : spec.campaigns) {
    const bool dup = std::any_of(seen.begin(), seen.end(), [&](const auto& p) {
      return p.provider == campaign.profile.provider;
    });
    if (dup) continue;
    seen.push_back(campaign.profile);
    blocks_.push_back(Block{flow_count_, spec.stationary_flows_per_provider,
                            radio::stationary_of(campaign.profile),
                            "stationary control", "Samsung Galaxy S4", true});
    flow_count_ += spec.stationary_flows_per_provider;
  }
}

FlowTask DatasetPlan::task(std::uint64_t flow_index) const {
  const Block* block = nullptr;
  for (const auto& b : blocks_) {
    if (flow_index >= b.start && flow_index < b.start + b.count) {
      block = &b;
      break;
    }
  }
  HSR_CHECK_MSG(block != nullptr, "flow index out of plan range");

  // Rng::fork is pure in (seed, label, index), so deriving here on demand
  // yields the exact stream the sequential planning loop drew.
  const util::Rng rng(seed_);
  util::Rng flow_rng =
      rng.fork(block->stationary ? "stationary-flow" : "flow", flow_index);
  const double span_s = flow_rng.uniform(duration_min_s_, duration_max_s_);
  const std::uint64_t seed =
      block->stationary
          ? util::splitmix64(seed_ ^ 0xABCDEF ^
                             (flow_index * 0x9e3779b97f4a7c15ULL))
          : util::splitmix64(seed_ ^ (flow_index * 0x9e3779b97f4a7c15ULL));
  return FlowTask{block->profile, block->campaign, block->phone,
                  util::Duration::from_seconds(span_s), seed};
}

namespace {

// Per-flow outcome beyond the record itself: the Status and, for flows with
// scripted faults, the portable plan text snapshotted after configure_flow
// (so a quarantined casualty can be re-run from its plans alone).
struct FlowOutcome {
  util::Status status;
  std::string downlink_plan;
  std::string uplink_plan;
};

// Runs one planned flow and reduces it to a record. Returns the flow's
// Status in `*outcome` (never throws past here): exceptions and watchdog
// aborts become per-flow diagnostics for the quarantine list. When
// `capture_out` is non-null, a successful flow's capture is moved there
// (streaming spill path) instead of being discarded with the run.
FlowRecord run_and_analyze(const DatasetSpec& spec, std::uint64_t flow_index,
                           const FlowTask& task, FlowOutcome* outcome,
                           trace::FlowCapture* capture_out = nullptr) {
  FlowRecord rec;
  util::Status* status = &outcome->status;
  try {
    FlowRunConfig cfg;
    cfg.profile = task.profile;
    cfg.duration = task.duration;
    cfg.seed = task.seed;
    cfg.max_sim_events = spec.max_sim_events_per_flow;
    if (spec.configure_flow) spec.configure_flow(flow_index, cfg);
    if (!cfg.downlink_faults.empty()) {
      outcome->downlink_plan = cfg.downlink_faults.to_text();
    }
    if (!cfg.uplink_faults.empty()) {
      outcome->uplink_plan = cfg.uplink_faults.to_text();
    }

    FlowRunResult run = run_flow(cfg);
    if (!run.status.is_ok()) {
      *status = run.status;
      return rec;
    }
    if (spec.observe_flow) spec.observe_flow(flow_index, run);

    rec.provider = radio::provider_name(cfg.profile.provider);
    rec.campaign = task.campaign;
    rec.phone = task.phone;
    rec.high_speed = cfg.profile.mobility == radio::Mobility::kHighSpeed;
    rec.analysis = analysis::analyze_flow(run.capture);
    rec.breakdown = analysis::loss_breakdown(run.capture);
    rec.goodput_pps = run.goodput_pps;
    rec.bytes_captured = run.bytes_captured;
    rec.duration = cfg.duration;
    rec.receiver_window = cfg.profile.receiver_window_segments;
    rec.delayed_ack_b = cfg.tcp.delayed_ack_b;
    rec.sim_events = run.sim_events;
    rec.sim_scheduled = run.sim_scheduled;
    rec.sim_tombstones = run.sim_tombstones;
    if (capture_out != nullptr) *capture_out = std::move(run.capture);
    *status = util::Status::ok();
  } catch (const std::exception& e) {
    *status = util::Status::internal(std::string("flow simulation threw: ") + e.what());
  } catch (...) {
    *status = util::Status::internal("flow simulation threw a non-std exception");
  }
  return rec;
}

// Resolves the worker count (0 = hardware concurrency), or an error when the
// requested count is absurd (the run is rejected before any thread starts).
util::StatusOr<unsigned> resolve_dataset_threads(unsigned requested) {
  if (requested > kMaxBenchThreads) {
    return util::Status::invalid_argument(
        "DatasetSpec::threads=" + std::to_string(requested) + " is absurd (max " +
        std::to_string(kMaxBenchThreads) + ")");
  }
  return util::resolve_thread_count(requested);
}

}  // namespace

DatasetResult generate_dataset(const DatasetSpec& spec) {
  // Plan phase: the campaign layout is a pure function of the spec
  // (DatasetPlan), so per-flow tasks are derived on demand in the workers —
  // no O(flows) task vector, and byte-identical to the legacy loop.
  const DatasetPlan plan(spec);
  const std::uint64_t n = plan.flow_count();

  DatasetResult out;
  auto threads = resolve_dataset_threads(spec.threads);
  if (!threads.is_ok()) {
    out.config_status = threads.status();
    return out;
  }

  // Simulate phase (parallel shards): each flow runs its own Simulator with
  // the planned seed and writes its record into a pre-sized slot by index.
  // No shared mutable state between shards, so thread count and scheduling
  // cannot perturb the result; threads == 1 is the plain sequential loop.
  // Workers never throw (run_and_analyze absorbs failures into per-index
  // statuses), so one sick flow cannot abort its siblings mid-flight.
  std::vector<FlowRecord> records(n);
  std::vector<FlowOutcome> outcomes(n);
  util::ThreadPool pool(threads.value());
  pool.parallel_for(n, [&](std::uint64_t i) {
    records[i] = run_and_analyze(spec, i, plan.task(i), &outcomes[i]);
  });

  // Aggregate phase (sequential, in flow order, after the join): compact the
  // healthy flows into the corpus and quarantine the casualties with their
  // diagnostics. Index order makes the result independent of thread count
  // and makes `stats` bitwise-reproducible by the streaming path.
  out.flows.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (outcomes[i].status.is_ok()) {
      const FlowRecord& rec = records[i];
      out.corpus.add(rec.provider, rec.high_speed, rec.analysis);
      out.stats.absorb(analysis::FlowStatsSample::from_flow(
          rec.analysis, rec.breakdown, rec.high_speed, rec.bytes_captured));
      out.flows.push_back(std::move(records[i]));
    } else {
      const FlowTask task = plan.task(i);
      out.stats.absorb_quarantine();
      out.quarantined.push_back(QuarantinedFlow{
          i, radio::provider_name(task.profile.provider), task.campaign,
          std::move(outcomes[i].status), std::move(outcomes[i].downlink_plan),
          std::move(outcomes[i].uplink_plan)});
    }
  }
  return out;
}

namespace {

// Sidecar frame type carried by chunk files next to each 'F' frame: the
// flow's FlowStatsSample plus its simulator event count, in raw IEEE-754
// bit patterns so merge-time absorption reproduces the in-memory stats
// digest BITWISE. Stripped from the merged corpus.
constexpr char kSampleFrame = 'S';

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

struct SampleCursor {
  const std::string& s;
  std::size_t pos = 0;
  bool fail = false;

  std::uint64_t get_u64() {
    if (pos + 8 > s.size()) {
      fail = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[pos + i])) << (8 * i);
    }
    pos += 8;
    return v;
  }
  double get_f64() {
    const std::uint64_t bits = get_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::uint8_t get_u8() {
    if (pos >= s.size()) {
      fail = true;
      return 0;
    }
    return static_cast<std::uint8_t>(s[pos++]);
  }
};

void encode_sample_payload(const analysis::FlowStatsSample& sample,
                           std::uint64_t sim_events, std::string& out) {
  out.clear();
  out.push_back(static_cast<char>((sample.high_speed ? 1 : 0) |
                                  (sample.has_timeouts ? 2 : 0)));
  put_f64(out, sample.ack_loss_rate);
  put_f64(out, sample.data_loss_rate);
  put_f64(out, sample.first_tx_loss_rate);
  put_f64(out, sample.recovery_retx_loss_rate);
  put_f64(out, sample.goodput_pps);
  put_u64(out, sample.bytes_captured);
  put_u64(out, sim_events);
  const auto& b = sample.breakdown;
  put_u64(out, b.data_sent);
  put_u64(out, b.data_lost);
  put_u64(out, b.ack_sent);
  put_u64(out, b.ack_lost);
  put_u64(out, b.data_unattributed);
  put_u64(out, b.ack_unattributed);
  put_u64(out, b.scripted_drops);
  put_u64(out, net::kDropCategoryCount);
  for (const std::uint64_t v : b.data_by_category) put_u64(out, v);
  for (const std::uint64_t v : b.ack_by_category) put_u64(out, v);
  put_u64(out, sample.sequences.size());
  for (const auto& seq : sample.sequences) {
    put_f64(out, seq.duration_s);
    out.push_back(static_cast<char>((seq.spurious ? 1 : 0) | (seq.recovered ? 2 : 0)));
  }
}

util::Status decode_sample_payload(const std::string& payload,
                                   analysis::FlowStatsSample* sample,
                                   std::uint64_t* sim_events) {
  SampleCursor c{payload};
  const std::uint8_t flags = c.get_u8();
  sample->high_speed = (flags & 1) != 0;
  sample->has_timeouts = (flags & 2) != 0;
  sample->ack_loss_rate = c.get_f64();
  sample->data_loss_rate = c.get_f64();
  sample->first_tx_loss_rate = c.get_f64();
  sample->recovery_retx_loss_rate = c.get_f64();
  sample->goodput_pps = c.get_f64();
  sample->bytes_captured = c.get_u64();
  *sim_events = c.get_u64();
  auto& b = sample->breakdown;
  b.data_sent = c.get_u64();
  b.data_lost = c.get_u64();
  b.ack_sent = c.get_u64();
  b.ack_lost = c.get_u64();
  b.data_unattributed = c.get_u64();
  b.ack_unattributed = c.get_u64();
  b.scripted_drops = c.get_u64();
  if (c.get_u64() != net::kDropCategoryCount) {
    return util::Status::invalid_argument(
        "stats sample frame has a foreign drop-category count");
  }
  for (auto& v : b.data_by_category) v = c.get_u64();
  for (auto& v : b.ack_by_category) v = c.get_u64();
  const std::uint64_t sequences = c.get_u64();
  if (c.fail || sequences > payload.size()) {  // 9 bytes each; cheap sanity bound
    return util::Status::invalid_argument("truncated stats sample frame");
  }
  sample->sequences.resize(static_cast<std::size_t>(sequences));
  for (auto& seq : sample->sequences) {
    seq.duration_s = c.get_f64();
    const std::uint8_t sflags = c.get_u8();
    seq.spurious = (sflags & 1) != 0;
    seq.recovered = (sflags & 2) != 0;
  }
  if (c.fail || c.pos != payload.size()) {
    return util::Status::invalid_argument("malformed stats sample frame");
  }
  return util::Status::ok();
}

// Every ProviderProfile field, doubles in shortest round-trip form: a
// recalibrated profile changes the text even by one ulp, so a resume cannot
// splice chunks simulated under two calibrations into one corpus.
void put_profile(std::ostringstream& os, const radio::ProviderProfile& p) {
  const auto put = [&os](double v) { os << ',' << util::format_double(v); };
  const radio::RadioConfig& r = p.radio;
  os << p.name << '|' << radio::provider_name(p.provider) << '|'
     << static_cast<int>(p.mobility) << "|radio";
  for (const double v :
       {r.speed_mps, r.cell_spacing_m, r.initial_offset_frac, r.handoff_outage_median_s,
        r.handoff_outage_sigma, r.handoff_loss, r.handoff_extra_delay_s,
        r.downlink_only_outage_fraction, r.base_loss_down, r.base_loss_up,
        r.edge_loss_down, r.edge_loss_up, r.uplink_fade_rate_per_s, r.uplink_fade_mean_s,
        r.uplink_fade_loss, r.downlink_fade_rate_per_s, r.downlink_fade_mean_s,
        r.downlink_fade_loss, r.coverage_gap_rate_per_s, r.coverage_gap_mean_s,
        r.coverage_gap_loss, r.access_delay_s, r.edge_extra_delay_s,
        r.delay_wander_amplitude_s, r.delay_wander_period_s}) {
    put(v);
  }
  os << "|phases=" << r.speed_profile.size();
  for (const radio::SpeedPhase& phase : r.speed_profile) {
    put(phase.duration_s);
    put(phase.speed_mps);
  }
  os << "|link";
  put(p.downlink_rate_bps);
  put(p.uplink_rate_bps);
  os << ',' << p.core_delay.ns() << ',' << p.queue_capacity << ','
     << p.receiver_window_segments;
}

// The configuration fingerprint a resume must match: everything that shapes
// flow content or chunk boundaries. configure_flow/observe_flow hooks are
// not digestible — the caller owns passing identical ones.
std::string canonical_spec_text(const DatasetSpec& spec, std::uint64_t flow_count,
                                std::uint64_t chunk_flows) {
  std::ostringstream os;
  os << "seed=" << spec.seed << " flows=" << flow_count
     << " chunk_flows=" << chunk_flows
     << " stationary=" << spec.stationary_flows_per_provider
     << " dur_s=" << spec.flow_duration_min.to_seconds() << ".."
     << spec.flow_duration_max.to_seconds()
     << " max_events=" << spec.max_sim_events_per_flow;
  for (const auto& c : spec.campaigns) {
    os << " campaign=" << c.campaign << '|' << c.phone << '|' << c.flows << '|'
       << c.trips << '|';
    put_profile(os, c.profile);
  }
  return os.str();
}

std::string chunk_file_path(const std::string& work_dir, std::uint64_t index) {
  return work_dir + "/chunk-" + std::to_string(index) + ".hsrb";
}

}  // namespace

StreamingDatasetResult generate_dataset_streaming(
    const DatasetSpec& spec, const StreamingDatasetOptions& options) {
  StreamingDatasetResult out;
  out.corpus_path = options.corpus_path;

  auto threads = resolve_dataset_threads(spec.threads);
  if (!threads.is_ok()) {
    out.config_status = threads.status();
    return out;
  }
  if (options.corpus_path.empty()) {
    out.config_status =
        util::Status::invalid_argument("streaming dataset needs a corpus_path");
    return out;
  }

  util::Fs& fs = options.fs != nullptr ? *options.fs : util::Fs::real();
  // The merge would only fail at its final rename, after the whole campaign.
  if (fs.exists(options.corpus_path)) {
    auto size = fs.file_size(options.corpus_path);
    if (!size.is_ok()) {
      out.config_status = util::Status::invalid_argument(
          "corpus_path is not a regular file: " + size.status().message());
      return out;
    }
  }
  const std::string work_dir =
      options.work_dir.empty() ? options.corpus_path + ".work" : options.work_dir;
  const std::uint64_t chunk_flows = options.chunk_flows == 0
                                        ? StreamingDatasetOptions::kDefaultChunkFlows
                                        : options.chunk_flows;
  const std::string manifest_path = work_dir + "/manifest.hsrman";

  const DatasetPlan plan(spec);
  const std::uint64_t n = plan.flow_count();
  const std::uint64_t chunk_count = (n + chunk_flows - 1) / chunk_flows;
  out.chunks_total = chunk_count;

  CampaignManifest manifest;
  manifest.spec_digest = manifest_digest(canonical_spec_text(spec, n, chunk_flows));
  manifest.total_flows = n;
  manifest.chunk_flows = chunk_flows;

  if (options.resume) {
    // Resume: the manifest is the source of truth for what survived. Every
    // listed chunk is re-verified against its recorded size and CRC before
    // being trusted; anything missing or damaged is simply re-run.
    if (fs.exists(manifest_path)) {
      auto loaded = load_campaign_manifest(manifest_path);
      if (!loaded.is_ok()) {
        out.config_status = util::Status::invalid_argument(
            "resume rejected: " + loaded.status().message());
        return out;
      }
      if (loaded.value().spec_digest != manifest.spec_digest) {
        out.config_status = util::Status::invalid_argument(
            "resume rejected: manifest was written under a different spec/seed/"
            "chunking (digest mismatch)");
        return out;
      }
      for (const ChunkEntry& entry : loaded.value().chunks) {
        if (entry.index >= chunk_count ||
            entry.first_flow != entry.index * chunk_flows ||
            entry.flow_count != std::min(chunk_flows, n - entry.first_flow)) {
          continue;  // foreign range: re-run it
        }
        const std::string path = chunk_file_path(work_dir, entry.index);
        auto size = fs.file_size(path);
        if (!size.is_ok() || size.value() != entry.bytes) continue;
        auto crc = trace::crc32c_of_file(path);
        if (!crc.is_ok() || crc.value() != entry.crc32c) continue;
        manifest.chunks.push_back(entry);
      }
      out.chunks_reused = manifest.chunks.size();
    }
  } else {
    // Fresh run: any previous work state is stale by definition.
    util::Status wiped = fs.remove_all(work_dir);
    if (!wiped.is_ok()) {
      out.io_status = std::move(wiped);
      return out;
    }
  }

  out.io_status = util::retry_transient([&] { return fs.create_directories(work_dir); });
  if (!out.io_status.is_ok()) return out;
  out.io_status = save_campaign_manifest(fs, manifest_path, manifest);
  if (!out.io_status.is_ok()) return out;

  std::vector<bool> committed(static_cast<std::size_t>(chunk_count));
  for (const ChunkEntry& entry : manifest.chunks) committed[entry.index] = true;
  std::vector<std::uint64_t> pending;
  pending.reserve(static_cast<std::size_t>(chunk_count - manifest.chunks.size()));
  for (std::uint64_t ci = 0; ci < chunk_count; ++ci) {
    if (!committed[ci]) pending.push_back(ci);
  }

  // Claims come off both ends of the unclaimed range pending[lo, hi): front
  // lanes take pending[lo], back lanes pending[hi - 1]. The plan puts the
  // stationary controls last, and their chunk is the campaign's heaviest,
  // so the back lanes start it first instead of last (DESIGN.md §6k).
  std::mutex claim_mu;  // guards lo, hi, io_failed and out.io_status
  std::size_t lo = 0;
  std::size_t hi = pending.size();
  bool io_failed = false;
  const auto record_io_failure = [&](util::Status status) {
    const std::lock_guard<std::mutex> lock(claim_mu);
    if (!io_failed) {
      io_failed = true;
      out.io_status = std::move(status);
    }
  };
  const auto claim = [&](bool from_back) -> std::optional<std::uint64_t> {
    const std::lock_guard<std::mutex> lock(claim_mu);
    if (io_failed || lo == hi) return std::nullopt;  // sick disk: stop claiming
    return from_back ? pending[--hi] : pending[lo++];
  };
  std::mutex manifest_mu;

  // One chunk: simulate its flows in index order, appending each 'F'
  // capture (freed immediately) plus its 'S' stats sidecar — or a 'Q'
  // record — then commit the chunk atomically and checkpoint the manifest.
  // A chunk's bytes are a pure function of (spec, chunk index): the lanes
  // only decide who runs it and when.
  const auto run_chunk = [&](std::uint64_t ci) {
    const std::uint64_t first = ci * chunk_flows;
    const std::uint64_t count = std::min(chunk_flows, n - first);

    trace::ChunkFileWriter writer(fs, chunk_file_path(work_dir, ci));
    util::Status status = writer.open();
    std::string sidecar;
    for (std::uint64_t i = first; status.is_ok() && i < first + count; ++i) {
      const FlowTask task = plan.task(i);
      FlowOutcome flow_outcome;
      trace::FlowCapture capture;
      FlowRecord rec = run_and_analyze(spec, i, task, &flow_outcome, &capture);
      if (flow_outcome.status.is_ok()) {
        // Archived frames carry the campaign-wide flow index as their FlowId
        // (run_flow numbers every capture 1, which would be useless in a
        // 100k-flow corpus).
        capture.flow = static_cast<net::FlowId>(i);
        status = writer.append_flow(capture);
        capture = trace::FlowCapture{};  // freed before the next flow
        if (status.is_ok()) {
          encode_sample_payload(
              analysis::FlowStatsSample::from_flow(rec.analysis, rec.breakdown,
                                                   rec.high_speed,
                                                   rec.bytes_captured),
              rec.sim_events, sidecar);
          status = writer.append_raw(kSampleFrame, sidecar);
        }
      } else {
        trace::QuarantineRecord qrec;
        qrec.flow_index = i;
        qrec.provider = radio::provider_name(task.profile.provider);
        qrec.campaign = task.campaign;
        qrec.status_code = static_cast<std::int32_t>(flow_outcome.status.code());
        qrec.message = flow_outcome.status.message();
        qrec.downlink_plan = flow_outcome.downlink_plan;
        qrec.uplink_plan = flow_outcome.uplink_plan;
        status = writer.append_quarantine(qrec);
      }
    }
    if (!status.is_ok()) {
      writer.abandon();
      record_io_failure(std::move(status));
      return;
    }
    auto info = writer.commit();
    if (!info.is_ok()) {
      writer.abandon();
      record_io_failure(info.status());
      return;
    }
    // Checkpoint: the committed chunk becomes durable resume state the
    // moment the manifest rewrite lands.
    const std::lock_guard<std::mutex> lock(manifest_mu);
    manifest.chunks.push_back(ChunkEntry{ci, first, count, info.value().flows,
                                         info.value().quarantines,
                                         info.value().bytes,
                                         info.value().crc32c});
    util::Status saved = save_campaign_manifest(fs, manifest_path, manifest);
    if (!saved.is_ok()) record_io_failure(std::move(saved));
  };

  // One lane per worker: even lanes work the front, odd lanes the back, and
  // each stays on its end until the ends meet. With one worker the single
  // front lane is plain index order.
  util::ThreadPool pool(threads.value());
  pool.parallel_for(pool.thread_count(), [&](std::uint64_t lane) {
    while (const std::optional<std::uint64_t> ci = claim(lane % 2 == 1)) run_chunk(*ci);
  });

  if (!out.io_status.is_ok()) return out;  // chunks + manifest left for resume

  std::sort(manifest.chunks.begin(), manifest.chunks.end(),
            [](const ChunkEntry& a, const ChunkEntry& b) { return a.index < b.index; });
  std::vector<std::string> chunk_paths;
  chunk_paths.reserve(manifest.chunks.size());
  std::uint64_t total_flow_frames = 0;
  for (const ChunkEntry& entry : manifest.chunks) {
    chunk_paths.push_back(chunk_file_path(work_dir, entry.index));
    total_flow_frames += entry.flows;
  }

  // Merge phase: chunks concatenate in index order, so the sidecar/quarantine
  // frames stream past this hook in strict flow order — exactly the absorb
  // sequence the in-memory path performs, whichever run produced each chunk.
  const auto absorb_frame = [&](char type, const std::string& payload) -> util::Status {
    if (type == kSampleFrame) {
      analysis::FlowStatsSample sample;
      std::uint64_t sim_events = 0;
      util::Status status = decode_sample_payload(payload, &sample, &sim_events);
      if (!status.is_ok()) return status;
      out.stats.absorb(sample);
      out.total_sim_events += sim_events;
    } else if (type == 'Q') {
      trace::QuarantineRecord qrec;
      util::Status status = trace::decode_quarantine_frame_payload(payload, &qrec);
      if (!status.is_ok()) return status;
      out.stats.absorb_quarantine();
      out.quarantined.push_back(QuarantinedFlow{
          qrec.flow_index, qrec.provider, qrec.campaign,
          util::Status(static_cast<util::StatusCode>(qrec.status_code), qrec.message),
          qrec.downlink_plan, qrec.uplink_plan});
    }
    return util::Status::ok();
  };

  auto merged = trace::merge_corpus_chunks(fs, chunk_paths, options.corpus_path,
                                           total_flow_frames, absorb_frame);
  if (!merged.is_ok()) {
    // Partial absorption is garbage; the chunks and manifest remain valid
    // resume state, so a retry redoes only the merge.
    out.stats = analysis::CorpusStats{};
    out.quarantined.clear();
    out.total_sim_events = 0;
    out.io_status = merged.status();
    return out;
  }
  out.flows_completed = merged.value().flows;
  out.corpus_bytes = merged.value().bytes;
  // The corpus is durable; the work state is now redundant (best-effort).
  (void)fs.remove_all(work_dir);
  return out;
}

double DatasetResult::total_capture_gb() const {
  double bytes = 0.0;
  for (const auto& f : flows) bytes += static_cast<double>(f.bytes_captured);
  return bytes / 1e9;
}

unsigned DatasetResult::flow_count(const std::string& provider, bool high_speed) const {
  unsigned n = 0;
  for (const auto& f : flows) {
    if (f.provider == provider && f.high_speed == high_speed) ++n;
  }
  return n;
}

std::uint64_t DatasetResult::total_sim_events() const {
  std::uint64_t n = 0;
  for (const auto& f : flows) n += f.sim_events;
  return n;
}

}  // namespace hsr::workload
