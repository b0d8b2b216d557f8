// Scripted I/O faults: every outcome in the matrix (hard fail, transient
// EIO, ENOSPC byte budget, short write, torn rename) must fire exactly as
// scripted, be audited, round-trip through the plan text format — and, the
// point of it all, never corrupt a pre-existing file saved through any of
// the seam writers.
#include "fault/io_fault.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/corpus_stats.h"
#include "trace/capture.h"
#include "trace/trace_binary.h"
#include "trace/trace_io.h"
#include "util/fs.h"

namespace hsr::fault {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(IoFaultPlanTest, TextRoundTripCoversTheBuilderMatrix) {
  IoFaultPlan plan;
  plan.fail_nth_write(3, "chunk-", "nth-write")
      .enospc_after(4096, ".hsrb", "disk-full")
      .short_write(1, "", "half")
      .torn_rename("manifest", "tear")
      .transient(IoOp::kSync, 2, "corpus", "flaky-sync")
      .fail_next(IoOp::kMkdir, "work", "no-mkdir");
  const std::string text = plan.to_text();
  const auto parsed = IoFaultPlan::parse(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value(), plan);
  EXPECT_EQ(parsed.value().to_text(), text);

  EXPECT_FALSE(IoFaultPlan::parse("hsriofaultplan-v9 directives=0\n").is_ok());
  EXPECT_FALSE(IoFaultPlan::parse("hsriofaultplan-v1 directives=1\n").is_ok());
}

TEST(IoFaultPlanTest, TokenlessLinesAreSkipped) {
  IoFaultPlan plan;
  plan.fail_nth_write(3, "chunk-", "nth-write").torn_rename("manifest", "tear");
  std::string text = plan.to_text();
  text.insert(text.find('\n') + 1, " \n\r\n");
  const auto parsed = IoFaultPlan::parse("\t\n" + text + " ");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value(), plan);
}

TEST(IoFaultPlanTest, LoadReadsAPlanFileFromDisk) {
  const std::string path = "io_fault_test_plan.txt";
  IoFaultPlan plan;
  plan.enospc_after(8000, "chunk-", "enospc-smoke");
  ASSERT_TRUE(util::write_file_atomic(util::Fs::real(), path, plan.to_text()).is_ok());
  const auto loaded = IoFaultPlan::load(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), plan);
  std::remove(path.c_str());
  EXPECT_FALSE(IoFaultPlan::load("io_fault_test_missing.txt").is_ok());
}

TEST(IoFaultTest, FailNthWriteFiresOnExactlyTheNthMatch) {
  IoFaultPlan plan;
  plan.fail_nth_write(3, "target", "third");
  FaultInjectingFs fs(plan, util::Fs::real());

  const std::string path = "io_fault_test_target.txt";
  auto file = fs.open_for_write(path);
  ASSERT_TRUE(file.is_ok());
  EXPECT_TRUE(file.value()->append("one").is_ok());
  EXPECT_TRUE(file.value()->append("two").is_ok());
  const util::Status third = file.value()->append("three");
  EXPECT_EQ(third.code(), util::StatusCode::kInternal);
  EXPECT_NE(third.message().find("'third'"), std::string::npos) << third.to_string();
  // One trigger only: the next write passes again.
  EXPECT_TRUE(file.value()->append("four").is_ok());
  ASSERT_TRUE(file.value()->close().is_ok());
  EXPECT_EQ(fs.faults_triggered(), 1u);
  ASSERT_EQ(fs.audit().size(), 1u);
  EXPECT_EQ(fs.audit()[0].op, IoOp::kWrite);
  EXPECT_EQ(fs.audit()[0].label, "third");
  std::remove(path.c_str());
}

TEST(IoFaultTest, EnospcTripsOnceTheByteBudgetIsSpentAndStaysDown) {
  IoFaultPlan plan;
  plan.enospc_after(10, "", "full");
  FaultInjectingFs fs(plan, util::Fs::real());

  const std::string path = "io_fault_test_enospc.txt";
  auto file = fs.open_for_write(path);
  ASSERT_TRUE(file.is_ok());
  EXPECT_TRUE(file.value()->append("0123456789").is_ok());  // exactly the budget
  const util::Status full = file.value()->append("x");
  EXPECT_EQ(full.code(), util::StatusCode::kResourceExhausted);
  EXPECT_NE(full.message().find("ENOSPC"), std::string::npos) << full.to_string();
  // A full disk does not heal on retry.
  EXPECT_EQ(file.value()->append("x").code(), util::StatusCode::kResourceExhausted);
  (void)file.value()->close();
  std::remove(path.c_str());
}

TEST(IoFaultTest, TransientFailuresHealWithinTheRetryBudget) {
  IoFaultPlan plan;
  plan.transient(IoOp::kRename, 2, "heal", "flaky");
  FaultInjectingFs fs(plan, util::Fs::real());

  // write_file_atomic retries the whole attempt on kUnavailable, so two
  // scripted transients are absorbed and the save still lands.
  const std::string path = "io_fault_test_heal.txt";
  ASSERT_TRUE(util::write_file_atomic(fs, path, "durable").is_ok());
  EXPECT_EQ(read_file(path), "durable");
  EXPECT_EQ(fs.faults_triggered(), 2u);
  std::remove(path.c_str());
}

TEST(IoFaultTest, ShortWriteLeavesHalfTheBytesAndErrors) {
  IoFaultPlan plan;
  plan.short_write(1, "short", "half");
  FaultInjectingFs fs(plan, util::Fs::real());

  const std::string path = "io_fault_test_short.txt";
  auto file = fs.open_for_write(path);
  ASSERT_TRUE(file.is_ok());
  const util::Status st = file.value()->append("0123456789");
  EXPECT_EQ(st.code(), util::StatusCode::kInternal);
  (void)file.value()->close();
  // Half the buffer reached the file — the torn-state shape write_file_atomic
  // protects final paths from.
  EXPECT_EQ(read_file(path), "01234");
  std::remove(path.c_str());
}

// The heart of the crash-safety contract: whatever fault fires mid-save, a
// pre-existing file at the destination survives byte-identically, through
// EVERY seam writer (plan text, flow capture text + binary, corpus stats).
class SeamWriterSurvivalTest : public ::testing::TestWithParam<IoOutcome> {};

IoFaultPlan plan_for(IoOutcome outcome, const std::string& path) {
  IoFaultPlan plan;
  switch (outcome) {
    case IoOutcome::kFail:
      plan.fail_nth_write(1, path, "survival-fail");
      break;
    case IoOutcome::kTransient: {
      // More transients than the retry budget: the save must give up
      // without damaging the destination.
      plan.transient(IoOp::kWrite, util::kTransientRetryAttempts + 2, path,
                     "survival-transient");
      break;
    }
    case IoOutcome::kEnospc:
      plan.enospc_after(4, path, "survival-enospc");
      break;
    case IoOutcome::kShortWrite:
      plan.short_write(1, path, "survival-short");
      break;
    case IoOutcome::kTornRename:
      plan.torn_rename(path, "survival-torn");
      break;
  }
  return plan;
}

trace::FlowCapture survival_capture() {
  trace::FlowCapture cap;
  cap.flow = 5;
  trace::Packet p;
  p.id = 1;
  p.flow = 5;
  p.kind = net::PacketKind::kData;
  p.seq = 1;
  p.size_bytes = 1400;
  cap.data.on_send(p, trace::TimePoint::from_ns(1000));
  cap.data.on_deliver(p, trace::TimePoint::from_ns(1000),
                      trace::TimePoint::from_ns(21000));
  return cap;
}

TEST_P(SeamWriterSurvivalTest, PreexistingFilesSurviveEveryFailedSave) {
  util::Fs& real = util::Fs::real();
  const IoOutcome outcome = GetParam();

  const trace::FlowCapture capture = survival_capture();
  analysis::CorpusStats stats;

  // Parameter instances run as concurrent ctest processes in one working
  // directory, so every path must be unique per outcome or the instances
  // clobber each other's "good save first" archives.
  const std::string tag = "io_fault_survival_" +
                          std::to_string(static_cast<int>(outcome)) + "_";
  struct Case {
    std::string path;
    std::function<util::Status(util::Fs&)> save;
  };
  const std::vector<Case> cases = {
      {tag + "capture.txt",
       [&](util::Fs& f) { return trace::save_flow_capture(f, tag + "capture.txt", capture); }},
      {tag + "capture.hsrb",
       [&](util::Fs& f) {
         return trace::save_capture_archive(f, tag + "capture.hsrb", {capture});
       }},
      {tag + "stats.txt",
       [&](util::Fs& f) { return analysis::save_corpus_stats(f, tag + "stats.txt", stats); }},
  };

  for (const Case& c : cases) {
    // A good save first — this is the archive a later faulty save must not eat.
    ASSERT_TRUE(c.save(real).is_ok()) << c.path;
    const std::string before = read_file(c.path);
    ASSERT_FALSE(before.empty()) << c.path;

    FaultInjectingFs faulty(plan_for(outcome, c.path), real);
    const util::Status st = c.save(faulty);
    EXPECT_FALSE(st.is_ok()) << c.path;
    EXPECT_GE(faulty.faults_triggered(), 1u) << c.path;
    EXPECT_EQ(read_file(c.path), before) << c.path;
    // No tmp debris either: failed saves clean up after themselves.
    EXPECT_FALSE(real.exists(c.path + ".tmp")) << c.path;
    std::remove(c.path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(AllOutcomes, SeamWriterSurvivalTest,
                         ::testing::Values(IoOutcome::kFail, IoOutcome::kTransient,
                                           IoOutcome::kEnospc, IoOutcome::kShortWrite,
                                           IoOutcome::kTornRename));

}  // namespace
}  // namespace hsr::fault
