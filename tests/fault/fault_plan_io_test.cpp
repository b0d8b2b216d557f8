// Portable fault-plan files: parse(to_text(p)) == p for every plan, malformed
// inputs fail with positional diagnostics, and an archived plan re-runs the
// experiment byte-identically — the artifact is the experiment.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "radio/profiles.h"
#include "trace/trace_io.h"
#include "util/fs.h"
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
// before and after the header and between the directives.
TEST(FaultPlanIoTest, TokenlessLinesAreSkipped) {
  const FaultPlan plan = every_builder_directive();
  std::string text = plan.to_text();
  text.insert(text.find("\nL ") + 1, "\r\n \t\n");
  text.insert(text.find('\n') + 1, " \n");
  auto parsed = FaultPlan::parse(" \n\r\n" + text + "\v\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value(), plan);
}

TEST(FaultPlanIoTest, MalformedInputsReportLineAndToken) {
  const struct {
    const char* text;
    const char* expect_in_message;
  } cases[] = {
      {"not-a-plan directives=0\n", "bad plan header"},
      // The retired v2 grammar (a parameter line before the directives).
      {"hsrfaultplan-v2 directives=0 params=0\n", "bad plan header"},
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
  ASSERT_TRUE(util::write_file_atomic(util::Fs::real(), path, plan.to_text()).is_ok());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  auto loaded = FaultPlan::load(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value(), plan);
  std::remove(path.c_str());
}

TEST(FaultPlanIoTest, MissingFileIsNotFound) {
  auto loaded = FaultPlan::load("/nonexistent/dir/plan.txt");
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

}  // namespace
}  // namespace hsr::fault
