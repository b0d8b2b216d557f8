// Dataset generation mirroring Table I of the paper: two measurement
// campaigns (January and October 2015) on the Beijing-Tianjin Intercity
// Railway, three providers, 255 flows, 40.47 GB of captures — plus a
// stationary control corpus for the §III comparisons.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/corpus.h"
#include "analysis/corpus_stats.h"
#include "radio/profiles.h"
#include "util/fs.h"
#include "util/status.h"
#include "workload/scenario.h"

namespace hsr::workload {

struct CampaignSpec {
  std::string campaign;        // "January 2015" / "October 2015"
  std::string phone;           // "Samsung Note 3" / "Samsung Galaxy S4"
  radio::ProviderProfile profile;
  unsigned flows = 0;
  unsigned trips = 0;
};

struct DatasetSpec {
  std::vector<CampaignSpec> campaigns;
  // Stationary control flows generated per provider.
  unsigned stationary_flows_per_provider = 12;
  // Per-flow duration is uniform in [min, max].
  // The paper's flows span minutes (40.47 GB over 255 flows); minute-scale
  // durations also give each flow enough timeout samples for stable
  // parameter estimates.
  util::Duration flow_duration_min = util::Duration::seconds(180);
  util::Duration flow_duration_max = util::Duration::seconds(300);
  std::uint64_t seed = 2015;
  // Worker threads for flow simulation. 0 = std::thread::hardware_concurrency();
  // 1 = fully sequential (the legacy single-threaded path). Every flow is an
  // independent, fork-seeded simulation whose record lands in a pre-sized
  // slot, so the result is byte-identical for ANY thread count (enforced by
  // tests). A count above kMaxBenchThreads REJECTS the run: generate_dataset
  // returns immediately with config_status set and zero flows.
  unsigned threads = 0;

  // Per-flow watchdog: a flow whose simulator executes more events than this
  // is aborted with a diagnostic Status and quarantined instead of spinning
  // the whole campaign forever. 0 = unlimited. The default is ~2 orders of
  // magnitude above what a paper-scale flow needs (see ROADMAP tunables).
  std::uint64_t max_sim_events_per_flow = kDefaultFlowEventBudget;
  static constexpr std::uint64_t kDefaultFlowEventBudget = 200'000'000;

  // Test/experiment hook: invoked in the worker before each flow runs, with
  // the flow's planned index and its fully derived config — mutate it to
  // inject fault plans, swap profiles, or shrink budgets per flow. MUST be
  // safe to call concurrently for distinct indices and deterministic in
  // (index, cfg) for the byte-identical-corpus contract to hold.
  std::function<void(std::uint64_t flow_index, FlowRunConfig& cfg)> configure_flow;
  // Observation hook: invoked in the worker with each SUCCESSFUL flow's full
  // result (captures included) before it is reduced to a FlowRecord. Same
  // concurrency/determinism contract as configure_flow.
  std::function<void(std::uint64_t flow_index, const FlowRunResult& run)> observe_flow;

  // Table I of the paper. `scale` in (0, 1] shrinks the flow counts
  // proportionally (floor, at least 1 per campaign) for quick runs.
  static DatasetSpec paper_table1(double scale = 1.0);
};

// One planned flow simulation: everything the worker needs to run flow
// `flow_index`, derived purely from (spec, flow_index).
struct FlowTask {
  radio::ProviderProfile profile;
  std::string campaign;
  std::string phone;
  util::Duration duration;
  std::uint64_t seed = 0;
};

// The campaign layout as a pure function of the spec: task(i) derives flow
// i's profile, duration and seed on demand, in O(campaigns + providers)
// memory — nothing is stored per flow, which is what lets a 10^6-flow
// campaign plan itself without a 10^6-element task vector. Derivation is
// identical to the legacy sequential planning loop (same fork labels, same
// seed mixing), so corpora are byte-for-byte unchanged.
class DatasetPlan {
 public:
  explicit DatasetPlan(const DatasetSpec& spec);

  std::uint64_t flow_count() const { return flow_count_; }
  // Pure in (spec, flow_index): callable concurrently, any order.
  FlowTask task(std::uint64_t flow_index) const;

 private:
  struct Block {
    std::uint64_t start = 0;
    std::uint64_t count = 0;
    radio::ProviderProfile profile;
    std::string campaign;
    std::string phone;
    bool stationary = false;
  };
  std::vector<Block> blocks_;
  std::uint64_t flow_count_ = 0;
  std::uint64_t seed_ = 0;
  double duration_min_s_ = 0.0;
  double duration_max_s_ = 0.0;
};

// The largest worker count a campaign accepts (DatasetSpec::threads, the
// tools' --threads and the benches' HSR_BENCH_THREADS knob).
inline constexpr unsigned kMaxBenchThreads = 512;

struct FlowRecord {
  std::string provider;   // short provider name ("China Mobile", ...)
  std::string campaign;
  std::string phone;
  bool high_speed = true;
  analysis::FlowAnalysis analysis;
  // Per-cause loss totals for this flow (integer counters; feeds the
  // corpus-wide loss breakdown in CorpusStats).
  analysis::LossBreakdown breakdown;
  double goodput_pps = 0.0;
  std::uint64_t bytes_captured = 0;
  util::Duration duration;
  unsigned receiver_window = 64;  // W_m used by this flow
  unsigned delayed_ack_b = 2;     // b used by this flow

  // Simulator-core cost accounting for this flow (events/sec and tombstone
  // ratio; ParallelDeterminismTest compares them across thread counts).
  std::uint64_t sim_events = 0;      // events executed
  std::uint64_t sim_scheduled = 0;   // events and timer arms ever scheduled
  std::uint64_t sim_tombstones = 0;  // idle entries (sim::Simulator::idle_events)
};

// A flow that failed in the simulate phase (exception, watchdog abort) and
// was excluded from the corpus instead of killing the whole campaign.
struct QuarantinedFlow {
  std::uint64_t flow_index = 0;  // planned index within the spec
  std::string provider;
  std::string campaign;
  util::Status status;  // why the flow was quarantined (never OK)
  // Portable fault-plan text ("hsrfaultplan-v1") for each direction, as
  // derived by configure_flow for THIS flow — empty when the direction had
  // no scripted faults. Feeding these back through fault::FaultPlan::parse()
  // re-runs the casualty bit-identically for post-mortem debugging.
  std::string downlink_plan;
  std::string uplink_plan;
};

struct DatasetResult {
  std::vector<FlowRecord> flows;
  analysis::Corpus corpus;  // built from `flows`
  // Online accumulators over the same flows, absorbed in flow order — the
  // digest (stats.to_text()) the streaming path must reproduce byte for
  // byte. stats.headline() is bitwise equal to corpus.headline().
  analysis::CorpusStats stats;

  // Partial-corpus semantics: `flows`/`corpus` hold every flow that
  // completed; failures are quarantined here with their diagnostics. An
  // empty list means the campaign was complete.
  std::vector<QuarantinedFlow> quarantined;
  // Spec rejection (e.g. an absurd thread count). When not OK the simulate
  // phase never ran and `flows` is empty.
  util::Status config_status;

  [[nodiscard]] bool complete() const { return config_status.is_ok() && quarantined.empty(); }

  double total_capture_gb() const;
  unsigned flow_count(const std::string& provider, bool high_speed) const;
  // Sum of the per-flow simulator event counts.
  std::uint64_t total_sim_events() const;
};

// Runs every flow of the spec (each with its own derived seed) and analyzes
// the captures. Deterministic for a given spec: flows are sharded across
// `spec.threads` workers, but each flow's simulation is seeded purely from
// (spec.seed, flow index), so the output does not depend on thread count or
// scheduling. Corpus aggregation happens sequentially after the join.
//
// Degrades gracefully instead of dying: a flow that throws or trips the
// event-budget watchdog is captured as a per-flow Status and quarantined in
// the result; every other flow still completes and aggregates.
DatasetResult generate_dataset(const DatasetSpec& spec);

// --- Streaming generation (bounded memory, crash-safe, resumable) ------------

struct StreamingDatasetOptions {
  // Final corpus file (hsrtrace-b2). Written atomically by the merge step;
  // an existing file is replaced, an existing directory refused up front.
  std::string corpus_path;
  // Work directory holding committed chunk files and the campaign manifest
  // while the run is in flight; "" = "<corpus_path>.work". A fresh run wipes
  // it; after an interrupted run it survives as the resume state, and a
  // successful merge cleans it up.
  std::string work_dir;
  // Planned flows per chunk (the unit of durability and of resume). The
  // final corpus bytes do NOT depend on this — merge re-stamps frame
  // sequence numbers — but the manifest pins it so a resume re-runs exactly
  // the missing ranges. 0 = kDefaultChunkFlows.
  std::uint64_t chunk_flows = 0;
  static constexpr std::uint64_t kDefaultChunkFlows = 256;
  // Resume from the work directory's manifest: verify every chunk it lists
  // (size + CRC-32C), keep the intact ones, re-run only the rest. The
  // manifest's spec digest must match this run's — a mismatched spec, seed
  // or chunking rejects the resume via config_status. configure_flow /
  // observe_flow hooks cannot be digested; callers must pass the same hooks
  // they ran with originally.
  bool resume = false;
  // I/O seam for every durable write (chunks, manifest, merge). nullptr =
  // util::Fs::real(); tests inject fault::FaultInjectingFs here.
  util::Fs* fs = nullptr;
};

// What a streaming campaign returns: online statistics and diagnostics, but
// NO captures and NO per-flow records — those live in the corpus file.
struct StreamingDatasetResult {
  analysis::CorpusStats stats;
  std::vector<QuarantinedFlow> quarantined;  // flow-index order
  // Spec rejection (same contract as DatasetResult); also a corpus_path
  // that names a directory, or a resume whose manifest was written under a
  // different spec digest.
  util::Status config_status;
  // First chunk/manifest/merge I/O failure. When not OK the corpus file was
  // not produced — but every chunk committed before the failure is durable
  // and the manifest describes it, so a `resume` run picks up from there.
  util::Status io_status;

  std::string corpus_path;
  std::uint64_t flows_completed = 0;  // flow frames in the corpus
  std::uint64_t corpus_bytes = 0;     // final corpus file size
  std::uint64_t total_sim_events = 0;
  std::uint64_t chunks_total = 0;   // chunks the campaign spans
  std::uint64_t chunks_reused = 0;  // verified and skipped by a resume

  [[nodiscard]] bool complete() const {
    return config_status.is_ok() && io_status.is_ok() && quarantined.empty();
  }
};

// generate_dataset with O(threads) instead of O(flows) capture memory, and
// crash-safe: the flow range is partitioned into chunks, each worker runs a
// chunk at a time and commits it as its own hsrtrace-b2 file (tmp + fsync +
// atomic rename) with per-flow 'S' stats-sample sidecar frames, and the
// manifest is atomically rewritten after every commit. Workers claim chunks
// from both ends of the plan (even workers the lowest pending chunk, odd
// workers the highest), so the heavy stationary tail starts first; with one
// thread the order is plain index order. The final merge
// concatenates chunks in index order, strips the sidecars while absorbing
// them into `stats` in strict flow order, and re-stamps frame sequence
// numbers — so corpus bytes AND stats.to_text() are byte-identical for any
// thread count, any chunk size, and any interruption/resume history, and
// bitwise equal to the in-memory path's DatasetResult::stats. Flow frames
// carry their campaign flow index as the FlowId.
StreamingDatasetResult generate_dataset_streaming(const DatasetSpec& spec,
                                                  const StreamingDatasetOptions& options);

}  // namespace hsr::workload
