#include "workload/dataset.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>

#include "fault/fault.h"
#include "trace/trace_io.h"

namespace hsr::workload {
namespace {

TEST(DatasetSpecTest, PaperTable1FullScale) {
  const DatasetSpec spec = DatasetSpec::paper_table1(1.0);
  ASSERT_EQ(spec.campaigns.size(), 4u);
  EXPECT_EQ(spec.campaigns[0].flows, 52u);  // January, Mobile
  EXPECT_EQ(spec.campaigns[1].flows, 73u);  // October, Mobile
  EXPECT_EQ(spec.campaigns[2].flows, 65u);  // October, Unicom
  EXPECT_EQ(spec.campaigns[3].flows, 65u);  // October, Telecom
  unsigned total = 0;
  for (const auto& c : spec.campaigns) total += c.flows;
  EXPECT_EQ(total, 255u);  // the paper's 255 flows
  EXPECT_EQ(spec.campaigns[0].trips, 8u);
  EXPECT_EQ(spec.campaigns[1].trips, 24u);
}

TEST(DatasetSpecTest, ScalingShrinksProportionally) {
  const DatasetSpec spec = DatasetSpec::paper_table1(0.1);
  EXPECT_EQ(spec.campaigns[0].flows, 5u);
  EXPECT_EQ(spec.campaigns[1].flows, 7u);
  // Never below one flow per campaign.
  const DatasetSpec tiny = DatasetSpec::paper_table1(0.001);
  for (const auto& c : tiny.campaigns) EXPECT_GE(c.flows, 1u);
}

TEST(GenerateDatasetTest, SmallCorpusEndToEnd) {
  DatasetSpec spec = DatasetSpec::paper_table1(0.03);
  spec.stationary_flows_per_provider = 2;
  spec.flow_duration_min = util::Duration::seconds(20);
  spec.flow_duration_max = util::Duration::seconds(30);
  const DatasetResult ds = generate_dataset(spec);

  unsigned expected_hs = 0;
  for (const auto& c : spec.campaigns) expected_hs += c.flows;
  EXPECT_EQ(ds.flows.size(), expected_hs + 3 * 2u);  // + stationary controls
  EXPECT_EQ(ds.corpus.size(), ds.flows.size());
  EXPECT_GT(ds.total_capture_gb(), 0.0);

  // Providers appear under their short names, both mobilities present.
  EXPECT_GE(ds.flow_count("China Mobile", true), 2u);
  EXPECT_EQ(ds.flow_count("China Mobile", false), 2u);
  EXPECT_EQ(ds.flow_count("China Unicom", false), 2u);
  EXPECT_EQ(ds.flow_count("China Telecom", false), 2u);

  for (const auto& f : ds.flows) {
    EXPECT_GT(f.goodput_pps, 0.0);
    EXPECT_GT(f.analysis.unique_segments, 0u);
  }
}

TEST(GenerateDatasetTest, DeterministicForSeed) {
  DatasetSpec spec = DatasetSpec::paper_table1(0.02);
  spec.stationary_flows_per_provider = 1;
  spec.flow_duration_min = util::Duration::seconds(15);
  spec.flow_duration_max = util::Duration::seconds(20);
  const DatasetResult a = generate_dataset(spec);
  const DatasetResult b = generate_dataset(spec);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].bytes_captured, b.flows[i].bytes_captured);
    EXPECT_DOUBLE_EQ(a.flows[i].goodput_pps, b.flows[i].goodput_pps);
  }
}

TEST(GenerateDatasetTest, HighSpeedWorseThanStationary) {
  DatasetSpec spec = DatasetSpec::paper_table1(0.04);
  spec.stationary_flows_per_provider = 3;
  spec.flow_duration_min = util::Duration::seconds(30);
  spec.flow_duration_max = util::Duration::seconds(45);
  const DatasetResult ds = generate_dataset(spec);
  const auto h = ds.corpus.headline();
  EXPECT_GT(h.mean_ack_loss_highspeed, h.mean_ack_loss_stationary);
  EXPECT_GT(h.mean_recovery_s_highspeed, h.mean_recovery_s_stationary);
}

TEST(GenerateDatasetTest, RejectsThreadCountAboveTheBenchCap) {
  DatasetSpec spec = DatasetSpec::paper_table1(0.02);
  spec.threads = kMaxBenchThreads + 1;
  const DatasetResult ds = generate_dataset(spec);
  // Rejected before a worker starts: no flows simulated.
  EXPECT_EQ(ds.config_status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(ds.config_status.message().find("DatasetSpec::threads=513"), std::string::npos);
  EXPECT_TRUE(ds.flows.empty());
  EXPECT_FALSE(ds.complete());
}

// --- Graceful degradation -----------------------------------------------------

DatasetSpec degradation_spec() {
  DatasetSpec spec = DatasetSpec::paper_table1(0.02);
  spec.stationary_flows_per_provider = 1;
  spec.flow_duration_min = util::Duration::seconds(5);
  spec.flow_duration_max = util::Duration::seconds(8);
  spec.threads = 2;
  return spec;
}

TEST(GenerateDatasetTest, QuarantinesThrowingFlowAndCompletesRest) {
  DatasetSpec spec = degradation_spec();
  spec.configure_flow = [](std::uint64_t flow_index, FlowRunConfig&) {
    if (flow_index == 1) throw std::runtime_error("injected per-flow crash");
  };
  const DatasetResult ds = generate_dataset(spec);

  ASSERT_EQ(ds.quarantined.size(), 1u);
  EXPECT_EQ(ds.quarantined[0].flow_index, 1u);
  EXPECT_EQ(ds.quarantined[0].status.code(), util::StatusCode::kInternal);
  EXPECT_NE(ds.quarantined[0].status.message().find("injected per-flow crash"),
            std::string::npos);
  EXPECT_FALSE(ds.quarantined[0].provider.empty());
  EXPECT_FALSE(ds.complete());

  // Every OTHER flow completed and aggregated normally.
  const DatasetResult healthy = generate_dataset(degradation_spec());
  EXPECT_EQ(ds.flows.size(), healthy.flows.size() - 1);
  EXPECT_EQ(ds.corpus.size(), ds.flows.size());
  for (const auto& f : ds.flows) EXPECT_GT(f.analysis.unique_segments, 0u);
}

TEST(GenerateDatasetTest, WatchdogQuarantinesStalledFlow) {
  DatasetSpec spec = degradation_spec();
  spec.configure_flow = [](std::uint64_t flow_index, FlowRunConfig& cfg) {
    // Flow 0 gets an event budget far below what its duration needs: the
    // watchdog must abort it with a diagnostic instead of letting it run.
    if (flow_index == 0) cfg.max_sim_events = 50;
  };
  const DatasetResult ds = generate_dataset(spec);

  ASSERT_EQ(ds.quarantined.size(), 1u);
  EXPECT_EQ(ds.quarantined[0].flow_index, 0u);
  EXPECT_EQ(ds.quarantined[0].status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_NE(ds.quarantined[0].status.message().find("watchdog"), std::string::npos);
  EXPECT_FALSE(ds.complete());
  EXPECT_FALSE(ds.flows.empty());
}

TEST(GenerateDatasetTest, HealthyRunIsComplete) {
  const DatasetResult ds = generate_dataset(degradation_spec());
  EXPECT_TRUE(ds.complete());
  EXPECT_TRUE(ds.quarantined.empty());
  EXPECT_TRUE(ds.config_status.is_ok());
}

// --- Scripted faults through the campaign pipeline ----------------------------

// Serializes flow 0's capture for a faulted run at the given thread count.
std::string faulted_flow0_capture(unsigned threads) {
  DatasetSpec spec = degradation_spec();
  spec.threads = threads;
  spec.configure_flow = [](std::uint64_t flow_index, FlowRunConfig& cfg) {
    if (flow_index != 0) return;
    cfg.uplink_faults.kill_acks(util::TimePoint::from_seconds(0.5),
                                util::TimePoint::from_seconds(2.5));
    cfg.downlink_faults.drop_retransmissions(2);
  };
  std::string serialized;
  spec.observe_flow = [&serialized](std::uint64_t flow_index, const FlowRunResult& run) {
    if (flow_index != 0) return;
    std::ostringstream ss;
    trace::write_flow_capture(ss, run.capture);
    serialized = ss.str();
  };
  const DatasetResult ds = generate_dataset(spec);
  EXPECT_TRUE(ds.complete());
  return serialized;
}

TEST(GenerateDatasetTest, FaultedCaptureByteIdenticalAcrossThreadCounts) {
  const std::string reference = faulted_flow0_capture(1);
  ASSERT_FALSE(reference.empty());
  // The scripted ACK kill actually fired and was audited into the capture.
  EXPECT_NE(reference.find("\nF A "), std::string::npos);
  for (unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(faulted_flow0_capture(threads), reference) << "threads=" << threads;
  }
}

// --- Packet-fate attribution --------------------------------------------------

TEST(GenerateDatasetTest, EveryLostTransmissionCarriesANonUnknownCause) {
  DatasetSpec spec = degradation_spec();
  // observe_flow runs on the pool's worker threads.
  std::atomic<std::uint64_t> attributed{0};
  spec.observe_flow = [&attributed](std::uint64_t, const FlowRunResult& run) {
    const util::TimePoint tail =
        util::TimePoint::zero() + run.duration - util::Duration::seconds(1);
    for (const auto* dir : {&run.capture.data, &run.capture.acks}) {
      for (const auto& tx : dir->transmissions()) {
        if (!tx.lost()) continue;
        if (tx.drop_cause.has_value()) {
          EXPECT_NE(tx.drop_cause->category, net::DropCategory::kUnknown);
          ++attributed;
        } else {
          // The only excuse for a cause-less loss is being in flight when
          // the capture ended; anything sent well before the end must have
          // been attributed by the queue or the channel.
          EXPECT_GE(tx.sent, tail) << "unattributed loss mid-flow";
        }
      }
    }
  };
  const DatasetResult ds = generate_dataset(spec);
  EXPECT_TRUE(ds.complete());
  // High-speed rail profiles lose plenty of packets: the check above ran.
  EXPECT_GT(attributed.load(), 0u);
}

TEST(GenerateDatasetTest, QuarantinedFlowsCarryTheirFaultPlans) {
  DatasetSpec spec = degradation_spec();
  spec.configure_flow = [](std::uint64_t flow_index, FlowRunConfig& cfg) {
    if (flow_index != 0) return;
    cfg.downlink_faults.blackout(util::TimePoint::from_seconds(1.0),
                                 util::TimePoint::from_seconds(1.5));
    cfg.uplink_faults.kill_acks(util::TimePoint::from_seconds(2.0),
                                util::TimePoint::from_seconds(2.2));
    cfg.max_sim_events = 50;  // watchdog abort -> quarantine
  };
  const DatasetResult ds = generate_dataset(spec);

  ASSERT_EQ(ds.quarantined.size(), 1u);
  const QuarantinedFlow& q = ds.quarantined[0];
  EXPECT_EQ(q.flow_index, 0u);
  // The portable plan text rides along, so the failure reproduces from the
  // quarantine record alone.
  auto down = fault::FaultPlan::parse(q.downlink_plan);
  auto up = fault::FaultPlan::parse(q.uplink_plan);
  ASSERT_TRUE(down.is_ok()) << down.status().message();
  ASSERT_TRUE(up.is_ok()) << up.status().message();
  ASSERT_EQ(down.value().directives.size(), 1u);
  EXPECT_EQ(down.value().directives[0].label, "blackout");
  EXPECT_EQ(up.value().directives[0].label, "ack-burst");

  // Fault-free quarantined flows would carry empty plan strings; healthy
  // flows never populate the quarantine list at all.
  const DatasetResult healthy = generate_dataset(degradation_spec());
  EXPECT_TRUE(healthy.quarantined.empty());
}

}  // namespace
}  // namespace hsr::workload
