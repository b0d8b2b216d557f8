// Portable fault-plan files: parse(to_text(p)) == p for every plan, malformed
// inputs fail with positional diagnostics, and an archived plan re-runs the
// experiment byte-identically — the artifact is the experiment.
#include "fault/plan_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "radio/profiles.h"
#include "trace/trace_io.h"
#include "workload/scenario.h"

namespace hsr::fault {
namespace {

FaultPlan every_builder_directive() {
  FaultPlan plan;
  plan.blackout(TimePoint::from_seconds(5.0), TimePoint::from_seconds(5.25));
  plan.kill_acks(TimePoint::from_seconds(10.0), TimePoint::from_seconds(10.1));
  plan.kill_ack_range(100, 105);
  plan.drop_retransmissions(2);
  plan.drop_segment_range(40, 44, 3);
  plan.delay_spike(TimePoint::from_seconds(20.0), TimePoint::from_seconds(21.0),
                   Duration::millis(250));
  plan.duplicate_next(5, /*copies=*/2);
  return plan;
}

TEST(FaultPlanIoTest, RoundTripPreservesEveryBuilderDirective) {
  const FaultPlan plan = every_builder_directive();
  const std::string text = plan.to_text();
  EXPECT_EQ(text.rfind("hsrfaultplan-v1 directives=7", 0), 0u) << text;

  auto parsed = FaultPlan::parse(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value(), plan);
  // And the round trip is a fixed point: re-serialization is byte-identical.
  EXPECT_EQ(parsed.value().to_text(), text);
}

TEST(FaultPlanIoTest, UnboundedSentinelsSerializeAsStar) {
  FaultPlan plan;
  plan.directives.emplace_back();  // all-default directive: every bound open
  const std::string text = plan.to_text();
  EXPECT_NE(text.find("X * 0 * 0 * 0 * 0 1 fault"), std::string::npos) << text;
  auto parsed = FaultPlan::parse(text);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value(), plan);
}

TEST(FaultPlanIoTest, EmptyPlanRoundTrips) {
  const FaultPlan plan;
  auto parsed = FaultPlan::parse(plan.to_text());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_TRUE(parsed.value().empty());
}

TEST(FaultPlanIoTest, WhitespaceLabelsAreSanitizedToOneToken) {
  FaultPlan plan;
  plan.blackout(TimePoint::zero(), TimePoint::from_seconds(1.0), "tunnel 3 entry");
  // Every byte the reader splits at, '\v' and '\f' included.
  plan.blackout(TimePoint::zero(), TimePoint::from_seconds(1.0), "a\tb\vc\fd\re\nf");
  auto parsed = FaultPlan::parse(plan.to_text());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().directives.at(0).label, "tunnel_3_entry");
  EXPECT_EQ(parsed.value().directives.at(1).label, "a_b_c_d_e_f");
}

// Token-less lines (blanks only, or a CRLF copy's lone '\r') are skipped
// before and after the header and between the P line and the directives.
TEST(FaultPlanIoTest, TokenlessLinesAreSkipped) {
  PlanFile file;
  file.plan = every_builder_directive();
  file.params = ReplayParams{};
  std::ostringstream os;
  write_plan_file(os, file);
  std::string text = os.str();
  text.insert(text.find("\nX ") + 1, "\r\n \t\n");
  text.insert(text.find('\n') + 1, " \n");
  std::istringstream is(" \n\r\n" + text + "\v\n");
  auto parsed = read_plan_file(is);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().plan, file.plan);
  EXPECT_EQ(parsed.value().params, file.params);
}

TEST(FaultPlanIoTest, MalformedInputsReportLineAndToken) {
  const struct {
    const char* text;
    const char* expect_in_message;
  } cases[] = {
      {"not-a-plan directives=0\n", "bad plan header"},
      {"hsrfaultplan-v1 directives=x\n", "bad directive count"},
      {"hsrfaultplan-v1 directives=1\nY * 0 * 0 * 0 * 0 1 l\n", "bad action code"},
      {"hsrfaultplan-v1 directives=1\nX Z 0 * 0 * 0 * 0 1 l\n", "bad kind filter"},
      {"hsrfaultplan-v1 directives=1\nX * zz * 0 * 0 * 0 1 l\n", "bad window begin"},
      {"hsrfaultplan-v1 directives=1\nX * 0 * 0 * 3 * 0 1 l\n",
       "bad retransmission flag"},
      {"hsrfaultplan-v1 directives=1\nX * 0 * 0 * 0 * -5 1 l\n", "bad delay"},
      {"hsrfaultplan-v1 directives=1\nX * 9 5 0 * 0 * 0 1 l\n", "inverted window"},
      {"hsrfaultplan-v1 directives=1\nX * 0 * 9 5 0 * 0 1 l\n",
       "inverted sequence range"},
      {"hsrfaultplan-v1 directives=1\nX * 0 *\n", "expected 11 fields"},
      // Header integrity: a truncated file must not pass as a smaller plan.
      {"hsrfaultplan-v1 directives=2\nX * 0 * 0 * 0 * 0 1 l\n",
       "header declares 2 directives, found 1"},
  };
  for (const auto& c : cases) {
    auto parsed = FaultPlan::parse(c.text);
    ASSERT_FALSE(parsed.is_ok()) << "accepted: " << c.text;
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find(c.expect_in_message),
              std::string::npos)
        << parsed.status().message();
  }
  // Positional diagnostics name the offending line and token.
  auto parsed = FaultPlan::parse(
      "hsrfaultplan-v1 directives=2\n"
      "X * 0 * 0 * 0 * 0 1 ok\n"
      "X * 0 * 0 * 0 bad! 0 1 broken\n");
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().message().find("plan line 3"), std::string::npos)
      << parsed.status().message();
  EXPECT_NE(parsed.status().message().find("'bad!'"), std::string::npos)
      << parsed.status().message();
}

TEST(FaultPlanIoTest, FileSaveLoadRoundTripLeavesNoTempFile) {
  const std::string path = testing::TempDir() + "/hsr_plan_test.txt";
  std::remove(path.c_str());
  const FaultPlan plan = every_builder_directive();
  ASSERT_TRUE(save_plan_file(path, PlanFile{plan, std::nullopt}).is_ok());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  auto loaded = load_plan_file(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().plan, plan);
  EXPECT_FALSE(loaded.value().params.has_value());
  std::remove(path.c_str());
}

TEST(FaultPlanIoTest, MissingFileIsNotFound) {
  auto loaded = load_plan_file("/nonexistent/dir/plan.txt");
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

// --- Re-run from plan file ----------------------------------------------------

std::string run_and_serialize(const FaultPlan& downlink, const FaultPlan& uplink) {
  workload::FlowRunConfig cfg;
  cfg.profile = radio::all_highspeed_profiles()[0];
  cfg.duration = Duration::seconds(15);
  cfg.seed = 20160627;
  cfg.downlink_faults = downlink;
  cfg.uplink_faults = uplink;
  const workload::FlowRunResult result = workload::run_flow(cfg);
  std::ostringstream os;
  trace::write_flow_capture(os, result.capture);
  return os.str();
}

TEST(FaultPlanIoTest, ReRunFromParsedPlanIsByteIdentical) {
  FaultPlan downlink;
  downlink.blackout(TimePoint::from_seconds(4.0), TimePoint::from_seconds(4.25));
  downlink.drop_retransmissions(2);
  FaultPlan uplink;
  uplink.kill_acks(TimePoint::from_seconds(8.0), TimePoint::from_seconds(8.2));

  const std::string original = run_and_serialize(downlink, uplink);

  // Re-run the experiment from the serialized plan text alone.
  auto down2 = FaultPlan::parse(downlink.to_text());
  auto up2 = FaultPlan::parse(uplink.to_text());
  ASSERT_TRUE(down2.is_ok() && up2.is_ok());
  const std::string rerun = run_and_serialize(down2.value(), up2.value());

  EXPECT_EQ(original, rerun);
  // The run actually exercised the scripted faults (the comparison is not
  // vacuously over two fault-free captures).
  EXPECT_NE(original.find(" X#"), std::string::npos);
}

// --- v2 parameter blocks ------------------------------------------------------

ReplayParams sample_params() {
  ReplayParams p;
  p.down_rate_bps = 2.5e6;
  p.down_delay_ns = Duration::millis(30).ns();
  p.down_queue = 128;
  p.up_rate_bps = 1e6;
  p.up_delay_ns = Duration::millis(25).ns();
  p.up_queue = 32;
  p.receiver_window = 100;
  p.tcp.mss_bytes = 1448;
  p.tcp.delayed_ack_b = 1;
  p.tcp.min_rto = Duration::millis(200);
  p.tcp.enable_sack = true;
  p.tcp.enable_frto = false;
  return p;
}

TEST(FaultPlanIoTest, NonDefaultProtocolKnobsRoundTripViaOptionalPair) {
  PlanFile file;
  file.plan.drop_retransmissions(1);
  ReplayParams p = sample_params();
  p.tcp.congestion_control = tcp::CongestionControl::kVeno;
  p.tcp.adaptive_delack = true;
  file.params = p;

  std::ostringstream os;
  write_plan_file(os, file);
  // The optional <cc> <adaptive> pair lands at the end of the P line.
  EXPECT_NE(os.str().find(" 2 1\n"), std::string::npos) << os.str();

  std::istringstream is(os.str());
  auto reread = read_plan_file(is);
  ASSERT_TRUE(reread.is_ok()) << reread.status().message();
  ASSERT_TRUE(reread.value().params.has_value());
  EXPECT_EQ(reread.value().params.value(), p);
}

TEST(FaultPlanIoTest, DefaultProtocolKnobsKeepTwelveFieldPLine) {
  PlanFile file;
  file.plan.drop_retransmissions(1);
  file.params = sample_params();  // Reno, non-adaptive: no optional pair

  std::ostringstream os;
  write_plan_file(os, file);
  std::istringstream count(os.str());
  std::string header;
  std::string pline;
  ASSERT_TRUE(std::getline(count, header));
  ASSERT_TRUE(std::getline(count, pline));
  std::istringstream ptokens(pline);
  std::string tok;
  int fields = 0;
  while (ptokens >> tok) ++fields;
  EXPECT_EQ(fields, 13);  // "P" + the 12 legacy fields, byte-compatible
}

TEST(FaultPlanIoTest, PlanFileWithParamsRoundTripsExactly) {
  PlanFile file;
  file.plan = every_builder_directive();
  file.params = sample_params();

  std::ostringstream os;
  write_plan_file(os, file);
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("hsrfaultplan-v2 directives=7 params=1", 0), 0u) << text;

  std::istringstream is(text);
  auto reread = read_plan_file(is);
  ASSERT_TRUE(reread.is_ok()) << reread.status().message();
  EXPECT_EQ(reread.value().plan, file.plan);
  ASSERT_TRUE(reread.value().params.has_value());
  EXPECT_EQ(reread.value().params.value(), file.params.value());

  // Fixed point: re-serialization is byte-identical (rates round-trip via
  // shortest-decimal formatting).
  std::ostringstream os2;
  write_plan_file(os2, reread.value());
  EXPECT_EQ(os2.str(), text);
}

TEST(FaultPlanIoTest, ParamlessPlanFileStaysOnV1ByteForByte) {
  PlanFile file;
  file.plan = every_builder_directive();

  std::ostringstream os;
  write_plan_file(os, file);
  // No parameter block -> the legacy v1 writer's exact bytes, so existing
  // archives and golden files never change.
  std::ostringstream legacy;
  write_fault_plan(legacy, file.plan);
  EXPECT_EQ(os.str(), legacy.str());
  EXPECT_EQ(os.str().rfind("hsrfaultplan-v1 ", 0), 0u);
}

TEST(FaultPlanIoTest, LegacyReaderAcceptsV2DiscardingParams) {
  PlanFile file;
  file.plan = every_builder_directive();
  file.params = sample_params();
  std::ostringstream os;
  write_plan_file(os, file);

  std::istringstream is(os.str());
  auto plan = read_fault_plan(is);
  ASSERT_TRUE(plan.is_ok()) << plan.status().message();
  EXPECT_EQ(plan.value(), file.plan);
}

TEST(FaultPlanIoTest, MalformedParamsLinesReportLineAndToken) {
  const struct {
    const char* text;
    const char* expect;
  } cases[] = {
      {"hsrfaultplan-v2 directives=0 params=2\n", "bad params flag"},
      {"hsrfaultplan-v2 directives=0 params=1\n", "no P line followed"},
      {"hsrfaultplan-v2 directives=0 params=1\n"
       "P 0 0 64 1e6 0 64 1400 2 0 64 0 0\n",
       "bad downlink rate"},
      {"hsrfaultplan-v2 directives=0 params=1\n"
       "P 1e6 0 64 1e6 0 64 1400 2 0 64 7 0\n",
       "bad sack flag"},
      {"hsrfaultplan-v2 directives=0 params=1\n"
       "P 1e6 0 64\n",
       "expected P line"},
  };
  for (const auto& c : cases) {
    std::istringstream is(c.text);
    auto parsed = read_plan_file(is);
    ASSERT_FALSE(parsed.is_ok()) << c.text;
    EXPECT_NE(parsed.status().message().find(c.expect), std::string::npos)
        << parsed.status().message();
  }
}

TEST(FaultPlanIoTest, PlanFileSaveLoadRoundTrip) {
  PlanFile file;
  file.plan.drop_retransmissions(1);
  file.params = sample_params();
  const std::string path = "fault_plan_io_test_v2.plan";
  ASSERT_TRUE(save_plan_file(path, file).is_ok());
  auto loaded = load_plan_file(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().plan, file.plan);
  ASSERT_TRUE(loaded.value().params.has_value());
  EXPECT_EQ(loaded.value().params.value(), file.params.value());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());  // atomic save leaves no temp file
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hsr::fault
