// The streaming-campaign contract: generate_dataset_streaming must produce
// (a) a corpus-stats digest BYTE-IDENTICAL to the in-memory path's
// DatasetResult::stats for the same spec, (b) a corpus file byte-identical
// for any thread count AND any chunk size, and (c) crash-safety — an
// interrupted campaign resumed from its manifest yields the same bytes as
// an uninterrupted run, and a scripted ENOSPC never corrupts a committed
// chunk.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/io_fault.h"
#include "trace/trace_binary.h"
#include "util/status.h"
#include "workload/dataset.h"
#include "workload/manifest.h"

namespace hsr::workload {
namespace {

namespace fs = std::filesystem;

DatasetSpec small_spec() {
  DatasetSpec spec = DatasetSpec::paper_table1(0.02);
  spec.stationary_flows_per_provider = 2;
  spec.flow_duration_min = util::Duration::seconds(5);
  spec.flow_duration_max = util::Duration::seconds(8);
  spec.seed = 20160627;
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::string unique_corpus_path(const std::string& tag) {
  return "streaming_dataset_test_" + tag + ".hsrb";
}

TEST(StreamingDatasetTest, StatsDigestMatchesInMemoryPathByteForByte) {
  DatasetSpec spec = small_spec();
  spec.threads = 1;
  const DatasetResult in_memory = generate_dataset(spec);
  ASSERT_TRUE(in_memory.complete());

  const std::string corpus_path = unique_corpus_path("digest");
  StreamingDatasetOptions options;
  options.corpus_path = corpus_path;
  const StreamingDatasetResult streamed = generate_dataset_streaming(spec, options);
  ASSERT_TRUE(streamed.complete()) << streamed.config_status.to_string() << " / "
                                   << streamed.io_status.to_string();

  // The whole point of the online accumulators: the digest of a campaign
  // that never held two captures at once is bitwise what the in-memory
  // aggregation produced.
  EXPECT_EQ(streamed.stats.to_text(), in_memory.stats.to_text());
  EXPECT_EQ(streamed.flows_completed, in_memory.flows.size());
  EXPECT_EQ(streamed.total_sim_events, in_memory.total_sim_events());
  std::remove(corpus_path.c_str());
}

TEST(StreamingDatasetTest, CorpusAndDigestIdenticalAcrossThreadCounts) {
  DatasetSpec spec = small_spec();
  spec.threads = 1;
  const std::string reference_path = unique_corpus_path("t1");
  StreamingDatasetOptions options;
  options.corpus_path = reference_path;
  const StreamingDatasetResult reference = generate_dataset_streaming(spec, options);
  ASSERT_TRUE(reference.complete());
  const std::string reference_bytes = read_file(reference_path);
  const std::string reference_digest = reference.stats.to_text();
  ASSERT_FALSE(reference_bytes.empty());
  std::remove(reference_path.c_str());

  for (unsigned threads : {2u, 4u, 8u}) {
    spec.threads = threads;
    const std::string path = unique_corpus_path("t" + std::to_string(threads));
    StreamingDatasetOptions opts;
    opts.corpus_path = path;
    const StreamingDatasetResult run = generate_dataset_streaming(spec, opts);
    ASSERT_TRUE(run.complete()) << "threads=" << threads;
    EXPECT_EQ(read_file(path), reference_bytes) << "threads=" << threads;
    EXPECT_EQ(run.stats.to_text(), reference_digest) << "threads=" << threads;
    // A successful merge cleans its work directory up.
    EXPECT_FALSE(fs::exists(path + ".work")) << "threads=" << threads;
    std::remove(path.c_str());
  }

  // The chunk partition must not leak into the bytes either: merge
  // re-stamps frame sequence numbers, so tiny chunks == one huge chunk.
  for (const std::uint64_t chunk_flows : {1u, 3u, 1000u}) {
    spec.threads = 4;
    const std::string path = unique_corpus_path("c" + std::to_string(chunk_flows));
    StreamingDatasetOptions opts;
    opts.corpus_path = path;
    opts.chunk_flows = chunk_flows;
    const StreamingDatasetResult run = generate_dataset_streaming(spec, opts);
    ASSERT_TRUE(run.complete()) << "chunk_flows=" << chunk_flows;
    EXPECT_EQ(read_file(path), reference_bytes) << "chunk_flows=" << chunk_flows;
    EXPECT_EQ(run.stats.to_text(), reference_digest) << "chunk_flows=" << chunk_flows;
    std::remove(path.c_str());
  }
}

// Which worker ran each flow, and in which order the flows started.
struct FlowRun {
  std::thread::id worker;
  std::uint64_t order = 0;
};

// Runs `spec` with one-flow chunks and records, per flow, the worker that
// ran it and its start order. On two or more threads flow 0 waits until the
// last flow has started, so the back of the plan cannot wait for the front.
std::vector<FlowRun> record_flow_runs(DatasetSpec spec, const std::string& tag) {
  const std::uint64_t n = DatasetPlan(spec).flow_count();
  std::vector<FlowRun> runs(n);
  std::atomic<std::uint64_t> started{0};
  std::atomic<bool> last_started{false};
  const bool gate = spec.threads >= 2;
  spec.configure_flow = [&](std::uint64_t i, FlowRunConfig&) {
    runs[i] = FlowRun{std::this_thread::get_id(), started.fetch_add(1)};
    if (i == n - 1) last_started.store(true);
    while (gate && i == 0 && !last_started.load()) std::this_thread::yield();
  };
  const std::string path = unique_corpus_path(tag);
  StreamingDatasetOptions options;
  options.corpus_path = path;
  options.chunk_flows = 1;
  const StreamingDatasetResult run = generate_dataset_streaming(spec, options);
  EXPECT_TRUE(run.complete()) << run.io_status.to_string();
  std::remove(path.c_str());
  return runs;
}

// True when `m` splits the workers: each one's flows lie all below m,
// started in rising index order, or all at or above m, started in falling
// index order.
bool splits_workers(const std::vector<FlowRun>& runs, std::size_t m) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t j = i + 1; j < runs.size(); ++j) {
      if (runs[i].worker != runs[j].worker) continue;
      if ((i < m) != (j < m)) return false;
      if ((runs[i].order < runs[j].order) != (j < m)) return false;
    }
  }
  return true;
}

// Even lanes claim the lowest pending chunk and odd lanes the highest, and
// a lane stays on its end until the ends meet. So whatever the timing, one
// split separates the front workers from the back workers.
TEST(StreamingDatasetTest, EachWorkerClaimsFromOneEnd) {
  DatasetSpec spec = small_spec();
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    spec.threads = threads;
    const std::vector<FlowRun> runs =
        record_flow_runs(spec, "lanes_t" + std::to_string(threads));
    const std::size_t n = runs.size();
    bool split = false;
    for (std::size_t m = 0; m <= n && !split; ++m) split = splits_workers(runs, m);
    EXPECT_TRUE(split) << "a worker ran flows from both ends";
    if (threads == 2) {
      // The only front lane holds flow 0 until the last flow starts, so the
      // back lane took the last flow before anyone reached flow 1.
      EXPECT_LT(runs[n - 1].order, runs[1].order);
      EXPECT_NE(runs[n - 1].worker, runs[0].worker);
    }
  }

  // One worker: a single front lane, which is plain index order.
  spec.threads = 1;
  const std::vector<FlowRun> runs = record_flow_runs(spec, "lanes_t1");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].worker, runs[0].worker) << "flow " << i;
    EXPECT_EQ(runs[i].order, i) << "flow " << i;
  }
}

TEST(StreamingDatasetTest, CorpusFileHoldsEveryFlowIndexedInOrder) {
  DatasetSpec spec = small_spec();
  spec.threads = 4;
  const std::string path = unique_corpus_path("order");
  StreamingDatasetOptions options;
  options.corpus_path = path;
  const StreamingDatasetResult run = generate_dataset_streaming(spec, options);
  ASSERT_TRUE(run.complete());

  std::ifstream in(path, std::ios::binary);
  const auto corpus = trace::read_binary_corpus(in);
  ASSERT_TRUE(corpus.is_ok()) << corpus.status().to_string();
  EXPECT_EQ(corpus.value().declared_flow_count, run.flows_completed);
  ASSERT_EQ(corpus.value().flows.size(), run.flows_completed);
  EXPECT_FALSE(corpus.value().torn_tail);
  // Frames carry the campaign flow index as FlowId, in strict index order.
  for (std::size_t i = 0; i < corpus.value().flows.size(); ++i) {
    EXPECT_EQ(corpus.value().flows[i].flow, i);
    EXPECT_GT(corpus.value().flows[i].data.transmissions().size(), 0u);
  }
  std::remove(path.c_str());
}

TEST(StreamingDatasetTest, QuarantineLandsInStreamAndDigestStillMatches) {
  DatasetSpec spec = small_spec();
  spec.configure_flow = [](std::uint64_t flow_index, FlowRunConfig& cfg) {
    // Flow 1 gets an event budget far below what its duration needs: the
    // watchdog aborts it and the campaign must quarantine, not die.
    if (flow_index == 1) cfg.max_sim_events = 50;
  };

  spec.threads = 1;
  const DatasetResult in_memory = generate_dataset(spec);
  ASSERT_EQ(in_memory.quarantined.size(), 1u);

  spec.threads = 4;
  const std::string path = unique_corpus_path("quarantine");
  StreamingDatasetOptions options;
  options.corpus_path = path;
  const StreamingDatasetResult run = generate_dataset_streaming(spec, options);
  ASSERT_TRUE(run.config_status.is_ok());
  ASSERT_TRUE(run.io_status.is_ok());
  EXPECT_FALSE(run.complete());  // partial-corpus semantics

  // Same casualty, same diagnostics, same digest as the in-memory path.
  ASSERT_EQ(run.quarantined.size(), 1u);
  EXPECT_EQ(run.quarantined[0].flow_index, 1u);
  EXPECT_EQ(run.quarantined[0].status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(run.stats.to_text(), in_memory.stats.to_text());
  EXPECT_EQ(run.stats.quarantined(), 1u);

  // The corpus stream archives the quarantine record, so the file explains
  // its own gap.
  std::ifstream in(path, std::ios::binary);
  const auto corpus = trace::read_binary_corpus(in);
  ASSERT_TRUE(corpus.is_ok()) << corpus.status().to_string();
  EXPECT_EQ(corpus.value().flows.size(), run.flows_completed);
  ASSERT_EQ(corpus.value().quarantined.size(), 1u);
  EXPECT_EQ(corpus.value().quarantined[0].flow_index, 1u);
  EXPECT_NE(corpus.value().quarantined[0].message.find("watchdog"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(StreamingDatasetTest, MissingCorpusPathIsRejectedUpFront) {
  DatasetSpec spec = small_spec();
  const StreamingDatasetResult run =
      generate_dataset_streaming(spec, StreamingDatasetOptions{});
  EXPECT_FALSE(run.config_status.is_ok());
  EXPECT_EQ(run.flows_completed, 0u);
}

// A directory as the corpus path would only fail at the merge's final
// rename; it is refused before the work dir exists or any flow runs.
TEST(StreamingDatasetTest, DirectoryCorpusPathIsRejectedUpFront) {
  const std::string dir = unique_corpus_path("directory");
  fs::create_directories(dir);
  StreamingDatasetOptions options;
  options.corpus_path = dir;
  const StreamingDatasetResult run = generate_dataset_streaming(small_spec(), options);
  const bool work_dir_created = fs::exists(dir + ".work");
  fs::remove_all(dir);
  fs::remove_all(dir + ".work");
  EXPECT_EQ(run.config_status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(run.config_status.message().find("not a regular file"), std::string::npos)
      << run.config_status.to_string();
  EXPECT_EQ(run.flows_completed, 0u);
  EXPECT_FALSE(work_dir_created);
}

TEST(StreamingDatasetTest, EnospcInterruptThenResumeIsByteIdentical) {
  DatasetSpec spec = small_spec();

  // The uninterrupted reference.
  spec.threads = 1;
  const std::string ref_path = unique_corpus_path("resume_ref");
  StreamingDatasetOptions ref_opts;
  ref_opts.corpus_path = ref_path;
  ref_opts.chunk_flows = 3;
  const StreamingDatasetResult reference = generate_dataset_streaming(spec, ref_opts);
  ASSERT_TRUE(reference.complete());
  const std::string reference_bytes = read_file(ref_path);
  const std::string reference_digest = reference.stats.to_text();
  std::remove(ref_path.c_str());

  // The disk fills up mid-campaign: the byte budget covers the chunk files
  // only, and the whole campaign's chunk writes exceed the final corpus
  // size (sidecars ride along), so the run MUST die with at least the first
  // chunk already durable.
  const std::string path = unique_corpus_path("resume");
  fault::IoFaultPlan plan;
  plan.enospc_after(reference.corpus_bytes, "chunk-", "test-enospc");
  fault::FaultInjectingFs faulty(plan, util::Fs::real());
  StreamingDatasetOptions opts;
  opts.corpus_path = path;
  opts.chunk_flows = 3;
  opts.fs = &faulty;
  const StreamingDatasetResult interrupted = generate_dataset_streaming(spec, opts);
  ASSERT_TRUE(interrupted.config_status.is_ok());
  ASSERT_FALSE(interrupted.io_status.is_ok());
  EXPECT_EQ(interrupted.io_status.code(), util::StatusCode::kResourceExhausted)
      << interrupted.io_status.to_string();
  // No partial corpus under the output name — ever.
  EXPECT_FALSE(fs::exists(path));
  // The committed chunks and the manifest survived as the resume state.
  const std::string work_dir = path + ".work";
  const auto manifest = load_campaign_manifest(work_dir + "/manifest.hsrman");
  ASSERT_TRUE(manifest.is_ok()) << manifest.status().to_string();
  ASSERT_GE(manifest.value().chunks.size(), 1u);
  EXPECT_LT(manifest.value().chunks.size(), interrupted.chunks_total);
  // And the scripted fault did not corrupt them: every listed chunk
  // verifies against its recorded digest when the resume replays it.

  // Resume on a different thread count: only the missing chunks re-run, and
  // the result is bitwise the uninterrupted run.
  spec.threads = 4;
  StreamingDatasetOptions resume_opts = opts;
  resume_opts.fs = nullptr;
  resume_opts.resume = true;
  const StreamingDatasetResult resumed = generate_dataset_streaming(spec, resume_opts);
  ASSERT_TRUE(resumed.complete()) << resumed.config_status.to_string() << " / "
                                  << resumed.io_status.to_string();
  EXPECT_EQ(resumed.chunks_reused, manifest.value().chunks.size());
  EXPECT_EQ(read_file(path), reference_bytes);
  EXPECT_EQ(resumed.stats.to_text(), reference_digest);
  EXPECT_EQ(resumed.total_sim_events, reference.total_sim_events);
  EXPECT_FALSE(fs::exists(work_dir));  // cleaned up after the merge
  std::remove(path.c_str());
}

// A 4-thread campaign runs out of disk in its middle chunk after its lanes
// have started both ends, so the committed chunks sit on both sides of the
// gap the resume fills. Resumed on 2 threads, it still reproduces an
// uninterrupted 1-thread run byte for byte.
TEST(StreamingDatasetTest, MultiWorkerInterruptResumesByteIdentical) {
  DatasetSpec spec = small_spec();
  spec.threads = 1;
  const std::string ref_path = unique_corpus_path("gap_ref");
  StreamingDatasetOptions ref_opts;
  ref_opts.corpus_path = ref_path;
  ref_opts.chunk_flows = 1;
  const StreamingDatasetResult reference = generate_dataset_streaming(spec, ref_opts);
  ASSERT_TRUE(reference.complete());
  const std::string reference_bytes = read_file(ref_path);
  std::remove(ref_path.c_str());

  // The middle chunk's header fits on the disk and its flow frame does not.
  // Its flow waits until both end flows have started, whichever lanes ran
  // them, so both end chunks commit while the campaign stops claiming.
  const std::uint64_t n = DatasetPlan(spec).flow_count();
  const std::uint64_t mid = n / 2;
  std::ostringstream header;
  trace::write_binary_trace_header(header, trace::kUnknownFlowCount);
  fault::IoFaultPlan plan;
  plan.enospc_after(header.str().size(), "/chunk-" + std::to_string(mid) + ".hsrb",
                    "test-enospc");
  fault::FaultInjectingFs faulty(plan, util::Fs::real());
  DatasetSpec gated = spec;
  gated.threads = 4;
  std::atomic<int> ends_started{0};
  gated.configure_flow = [&](std::uint64_t i, FlowRunConfig&) {
    if (i == 0 || i == n - 1) ends_started.fetch_add(1);
    while (i == mid && ends_started.load() < 2) std::this_thread::yield();
  };
  const std::string path = unique_corpus_path("gap");
  StreamingDatasetOptions opts;
  opts.corpus_path = path;
  opts.chunk_flows = 1;
  opts.fs = &faulty;
  const StreamingDatasetResult interrupted = generate_dataset_streaming(gated, opts);
  ASSERT_TRUE(interrupted.config_status.is_ok());
  EXPECT_EQ(interrupted.io_status.code(), util::StatusCode::kResourceExhausted)
      << interrupted.io_status.to_string();
  EXPECT_FALSE(fs::exists(path));

  const auto manifest = load_campaign_manifest(path + ".work/manifest.hsrman");
  ASSERT_TRUE(manifest.is_ok()) << manifest.status().to_string();
  std::vector<bool> committed(n);
  for (const ChunkEntry& entry : manifest.value().chunks) committed[entry.index] = true;
  EXPECT_TRUE(committed.front());
  EXPECT_TRUE(committed.back());
  EXPECT_FALSE(committed[mid]);

  spec.threads = 2;
  StreamingDatasetOptions resume_opts = opts;
  resume_opts.fs = nullptr;
  resume_opts.resume = true;
  const StreamingDatasetResult resumed = generate_dataset_streaming(spec, resume_opts);
  ASSERT_TRUE(resumed.complete()) << resumed.config_status.to_string() << " / "
                                  << resumed.io_status.to_string();
  EXPECT_EQ(resumed.chunks_reused, manifest.value().chunks.size());
  EXPECT_EQ(read_file(path), reference_bytes);
  EXPECT_EQ(resumed.stats.to_text(), reference.stats.to_text());
  EXPECT_EQ(resumed.total_sim_events, reference.total_sim_events);
  std::remove(path.c_str());
}

// One perturbation per ProviderProfile field. Doubles move by one ulp, so a
// digest that prints them with less than round-trip precision fails too.
struct ProfilePerturbation {
  const char* field;
  std::function<void(radio::ProviderProfile&)> apply;
};

std::vector<ProfilePerturbation> profile_perturbations() {
  const auto ulp = [](double& v) { v = std::nextafter(v, HUGE_VAL); };
  std::vector<ProfilePerturbation> out = {
      {"name", [](radio::ProviderProfile& p) { p.name += "-recalibrated"; }},
      {"provider",
       [](radio::ProviderProfile& p) {
         p.provider = p.provider == radio::Provider::kChinaTelecom3g
                          ? radio::Provider::kChinaUnicom3g
                          : radio::Provider::kChinaTelecom3g;
       }},
      {"mobility",
       [](radio::ProviderProfile& p) {
         p.mobility = p.mobility == radio::Mobility::kHighSpeed
                          ? radio::Mobility::kStationary
                          : radio::Mobility::kHighSpeed;
       }},
      {"speed_profile: extra phase",
       [](radio::ProviderProfile& p) { p.radio.speed_profile.push_back({10.0, 0.0}); }},
      {"speed_profile: phase duration",
       [ulp](radio::ProviderProfile& p) { ulp(p.radio.speed_profile.at(0).duration_s); }},
      {"speed_profile: phase speed",
       [ulp](radio::ProviderProfile& p) { ulp(p.radio.speed_profile.at(0).speed_mps); }},
      {"downlink_rate_bps", [ulp](radio::ProviderProfile& p) { ulp(p.downlink_rate_bps); }},
      {"uplink_rate_bps", [ulp](radio::ProviderProfile& p) { ulp(p.uplink_rate_bps); }},
      {"core_delay",
       [](radio::ProviderProfile& p) { p.core_delay += util::Duration::nanos(1); }},
      {"queue_capacity", [](radio::ProviderProfile& p) { ++p.queue_capacity; }},
      {"receiver_window_segments",
       [](radio::ProviderProfile& p) { ++p.receiver_window_segments; }},
  };
  using R = radio::RadioConfig;
  const std::pair<const char*, double R::*> radio_fields[] = {
      {"speed_mps", &R::speed_mps},
      {"cell_spacing_m", &R::cell_spacing_m},
      {"initial_offset_frac", &R::initial_offset_frac},
      {"handoff_outage_median_s", &R::handoff_outage_median_s},
      {"handoff_outage_sigma", &R::handoff_outage_sigma},
      {"handoff_loss", &R::handoff_loss},
      {"handoff_extra_delay_s", &R::handoff_extra_delay_s},
      {"downlink_only_outage_fraction", &R::downlink_only_outage_fraction},
      {"base_loss_down", &R::base_loss_down},
      {"base_loss_up", &R::base_loss_up},
      {"edge_loss_down", &R::edge_loss_down},
      {"edge_loss_up", &R::edge_loss_up},
      {"uplink_fade_rate_per_s", &R::uplink_fade_rate_per_s},
      {"uplink_fade_mean_s", &R::uplink_fade_mean_s},
      {"uplink_fade_loss", &R::uplink_fade_loss},
      {"downlink_fade_rate_per_s", &R::downlink_fade_rate_per_s},
      {"downlink_fade_mean_s", &R::downlink_fade_mean_s},
      {"downlink_fade_loss", &R::downlink_fade_loss},
      {"coverage_gap_rate_per_s", &R::coverage_gap_rate_per_s},
      {"coverage_gap_mean_s", &R::coverage_gap_mean_s},
      {"coverage_gap_loss", &R::coverage_gap_loss},
      {"access_delay_s", &R::access_delay_s},
      {"edge_extra_delay_s", &R::edge_extra_delay_s},
      {"delay_wander_amplitude_s", &R::delay_wander_amplitude_s},
      {"delay_wander_period_s", &R::delay_wander_period_s},
  };
  for (const auto& [field, member] : radio_fields) {
    out.push_back({field, [ulp, member](radio::ProviderProfile& p) { ulp(p.radio.*member); }});
  }
  return out;
}

TEST(StreamingDatasetTest, ResumeUnderADifferentSpecIsRejected) {
  DatasetSpec spec = small_spec();
  spec.threads = 1;
  // One speed phase, so the phase perturbations below have a phase to move.
  spec.campaigns.front().profile.radio.speed_profile = {{30.0, 50.0}};

  // Interrupt at the merge: every chunk is committed, only the final rename
  // is torn, so the work directory holds a complete manifest.
  const std::string path = unique_corpus_path("reject");
  fault::IoFaultPlan plan;
  // `<corpus>.tmp` names the merge's rename only; chunk tmps live under
  // `<corpus>.work/` and must commit untouched.
  plan.torn_rename(path + ".tmp", "test-torn-merge");
  fault::FaultInjectingFs faulty(plan, util::Fs::real());
  StreamingDatasetOptions opts;
  opts.corpus_path = path;
  opts.chunk_flows = 4;
  opts.fs = &faulty;
  const StreamingDatasetResult interrupted = generate_dataset_streaming(spec, opts);
  ASSERT_TRUE(interrupted.config_status.is_ok());
  ASSERT_FALSE(interrupted.io_status.is_ok());
  EXPECT_FALSE(fs::exists(path));

  // A resume with a different seed would splice incompatible flows; the
  // spec digest in the manifest catches it before any work runs.
  DatasetSpec other = spec;
  other.seed += 1;
  StreamingDatasetOptions resume_opts = opts;
  resume_opts.fs = nullptr;
  resume_opts.resume = true;
  const StreamingDatasetResult rejected = generate_dataset_streaming(other, resume_opts);
  ASSERT_FALSE(rejected.config_status.is_ok());
  EXPECT_NE(rejected.config_status.message().find("digest mismatch"), std::string::npos)
      << rejected.config_status.to_string();
  EXPECT_EQ(rejected.flows_completed, 0u);

  // So would a resume after recalibrating any field of a campaign's
  // provider profile: chunks simulated under the old calibration must not
  // be spliced into the new one.
  for (const ProfilePerturbation& perturbation : profile_perturbations()) {
    SCOPED_TRACE(perturbation.field);
    DatasetSpec recalibrated = spec;
    perturbation.apply(recalibrated.campaigns.front().profile);
    const StreamingDatasetResult r = generate_dataset_streaming(recalibrated, resume_opts);
    ASSERT_FALSE(r.config_status.is_ok());
    EXPECT_NE(r.config_status.message().find("digest mismatch"), std::string::npos)
        << r.config_status.to_string();
    EXPECT_EQ(r.flows_completed, 0u);
  }

  // The right spec still resumes cleanly afterwards — rejection is
  // side-effect-free.
  const StreamingDatasetResult resumed = generate_dataset_streaming(spec, resume_opts);
  ASSERT_TRUE(resumed.complete()) << resumed.io_status.to_string();
  EXPECT_EQ(resumed.chunks_reused, resumed.chunks_total);
  std::remove(path.c_str());
}

TEST(StreamingDatasetTest, DamagedChunkIsReRunOnResume) {
  DatasetSpec spec = small_spec();
  spec.threads = 1;

  const std::string path = unique_corpus_path("damaged");
  fault::IoFaultPlan plan;
  plan.torn_rename(path + ".tmp", "test-torn-merge");
  fault::FaultInjectingFs faulty(plan, util::Fs::real());
  StreamingDatasetOptions opts;
  opts.corpus_path = path;
  opts.chunk_flows = 3;
  opts.fs = &faulty;
  const StreamingDatasetResult interrupted = generate_dataset_streaming(spec, opts);
  ASSERT_FALSE(interrupted.io_status.is_ok());

  // Flip one byte inside a committed chunk: its CRC no longer matches the
  // manifest, so the resume must re-run that chunk instead of trusting it.
  const std::string chunk0 = path + ".work/chunk-0.hsrb";
  std::string bytes = read_file(chunk0);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  ASSERT_TRUE(util::write_file_atomic(util::Fs::real(), chunk0, bytes).is_ok());

  StreamingDatasetOptions resume_opts = opts;
  resume_opts.fs = nullptr;
  resume_opts.resume = true;
  const StreamingDatasetResult resumed = generate_dataset_streaming(spec, resume_opts);
  ASSERT_TRUE(resumed.complete()) << resumed.io_status.to_string();
  EXPECT_EQ(resumed.chunks_reused, resumed.chunks_total - 1);

  // Re-running the damaged chunk restored the uninterrupted bytes.
  spec.threads = 2;
  const std::string ref_path = unique_corpus_path("damaged_ref");
  StreamingDatasetOptions ref_opts;
  ref_opts.corpus_path = ref_path;
  ref_opts.chunk_flows = 3;
  const StreamingDatasetResult reference = generate_dataset_streaming(spec, ref_opts);
  ASSERT_TRUE(reference.complete());
  EXPECT_EQ(read_file(path), read_file(ref_path));
  EXPECT_EQ(resumed.stats.to_text(), reference.stats.to_text());
  std::remove(path.c_str());
  std::remove(ref_path.c_str());
}

}  // namespace
}  // namespace hsr::workload
