#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace hsr::trace {
namespace {

FlowCapture sample_capture() {
  FlowCapture cap;
  cap.flow = 9;

  Packet d1;
  d1.id = 1;
  d1.flow = 9;
  d1.kind = net::PacketKind::kData;
  d1.seq = 1;
  d1.size_bytes = 1400;
  cap.data.on_send(d1, TimePoint::from_ns(1000));
  cap.data.on_deliver(d1, TimePoint::from_ns(1000), TimePoint::from_ns(31000));

  Packet d2 = d1;
  d2.id = 2;
  d2.seq = 2;
  d2.retx_count = 1;
  d2.is_retransmission = true;
  cap.data.on_send(d2, TimePoint::from_ns(2000));
  cap.data.on_drop(d2, TimePoint::from_ns(2000),
                   net::DropCause::gilbert_elliott(/*bad_state=*/true));

  Packet a1;
  a1.id = 3;
  a1.flow = 9;
  a1.kind = net::PacketKind::kAck;
  a1.ack_next = 2;
  a1.size_bytes = 52;
  cap.acks.on_send(a1, TimePoint::from_ns(35000));
  cap.acks.on_drop(a1, TimePoint::from_ns(35000), net::DropCause::queue_overflow());
  return cap;
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  const FlowCapture original = sample_capture();
  std::stringstream ss;
  write_flow_capture(ss, original);

  auto loaded = read_flow_capture(ss);
  ASSERT_TRUE(loaded.is_ok());
  const FlowCapture& cap = loaded.value();

  EXPECT_EQ(cap.flow, 9u);
  ASSERT_EQ(cap.data.sent_count(), 2u);
  ASSERT_EQ(cap.acks.sent_count(), 1u);

  const auto& d = cap.data.transmissions();
  EXPECT_EQ(d[0].packet.seq, 1u);
  EXPECT_EQ(d[0].sent, TimePoint::from_ns(1000));
  ASSERT_TRUE(d[0].arrived.has_value());
  EXPECT_EQ(*d[0].arrived, TimePoint::from_ns(31000));

  EXPECT_TRUE(d[1].lost());
  ASSERT_TRUE(d[1].drop_cause.has_value());
  EXPECT_EQ(d[1].drop_cause->category, net::DropCategory::kGilbertElliottBad);
  EXPECT_EQ(d[1].drop_cause->directive, -1);
  EXPECT_EQ(d[1].packet.retx_count, 1u);

  const auto& a = cap.acks.transmissions();
  EXPECT_EQ(a[0].packet.ack_next, 2u);
  EXPECT_EQ(*a[0].drop_cause, net::DropCause::queue_overflow());
}

TEST(TraceIoTest, LostPacketsSerializeAsMinusOne) {
  std::stringstream ss;
  write_flow_capture(ss, sample_capture());
  const std::string text = ss.str();
  EXPECT_NE(text.find(" -1 "), std::string::npos);
  EXPECT_NE(text.find("hsrtrace-v2 flow=9"), std::string::npos);
}

TEST(TraceIoTest, DropTokensCarryComponentAndDirective) {
  std::stringstream ss;
  write_flow_capture(ss, sample_capture());
  const std::string text = ss.str();
  // Organic drops are their bare category code; only a scripted drop
  // carries a `#<directive>` suffix, and no token carries a component.
  EXPECT_NE(text.find(" G "), std::string::npos) << text;
  EXPECT_NE(text.find(" Q "), std::string::npos) << text;
  EXPECT_EQ(text.find('@'), std::string::npos) << text;
  EXPECT_EQ(text.find('#'), std::string::npos) << text;
}

TEST(TraceIoTest, ScriptedCauseRoundTripsDirectiveIndex) {
  FlowCapture cap;
  cap.flow = 2;
  Packet p;
  p.id = 1;
  p.flow = 2;
  p.kind = net::PacketKind::kData;
  p.seq = 7;
  p.size_bytes = 1400;
  cap.data.on_send(p, TimePoint::from_ns(500));
  cap.data.on_drop(p, TimePoint::from_ns(500), net::DropCause::scripted(4));

  std::stringstream ss;
  write_flow_capture(ss, cap);
  EXPECT_NE(ss.str().find(" X#4 "), std::string::npos) << ss.str();
  auto loaded = read_flow_capture(ss);
  ASSERT_TRUE(loaded.is_ok());
  const auto& tx = loaded.value().data.transmissions().at(0);
  ASSERT_TRUE(tx.drop_cause.has_value());
  EXPECT_EQ(*tx.drop_cause, net::DropCause::scripted(4));
  EXPECT_TRUE(tx.drop_cause->is_scripted());
}

TEST(TraceIoTest, V1ArchivesStillRead) {
  // A v1 archive only knew codes '-', 'Q' and 'C'; 'C' decodes into the
  // legacy unattributed-channel category rather than failing the read.
  std::stringstream ss(
      "hsrtrace-v1 flow=3\n"
      "D 1 1 0 1400 1000 -1 C 0\n"
      "A 2 0 2 52 2000 -1 Q 0\n");
  auto loaded = read_flow_capture(ss);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  const FlowCapture& cap = loaded.value();
  EXPECT_EQ(cap.flow, 3u);
  ASSERT_EQ(cap.data.sent_count(), 1u);
  EXPECT_EQ(cap.data.transmissions()[0].drop_cause->category,
            net::DropCategory::kChannelUnattributed);
  EXPECT_EQ(cap.acks.transmissions()[0].drop_cause->category,
            net::DropCategory::kQueueOverflow);
}

TEST(TraceIoTest, MalformedDropTokenIsAnError) {
  // `@` introduced the retired composite-component path; it is refused
  // alone and in front of a directive.
  for (const char* token :
       {"Z", "B@", "B@-2", "X#", "X#x", "B@1extra", "B@1", "X@0#2"}) {
    std::stringstream ss("hsrtrace-v2 flow=1\nD 1 1 0 1400 1000 -1 " +
                         std::string(token) + " 0\nA 2 0 1 52 2000 3000 - 0\n");
    auto loaded = read_flow_capture(ss);
    ASSERT_FALSE(loaded.is_ok()) << "token accepted: " << token;
    EXPECT_NE(loaded.status().message().find("bad drop token"), std::string::npos)
        << loaded.status().message();
  }
}

TEST(TraceIoTest, RejectsBadHeader) {
  std::stringstream ss("not-a-trace flow=1\n");
  auto loaded = read_flow_capture(ss);
  EXPECT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(TraceIoTest, RejectsMalformedLine) {
  std::stringstream ss("hsrtrace-v1 flow=1\nD garbage\n");
  auto loaded = read_flow_capture(ss);
  EXPECT_FALSE(loaded.is_ok());
}

TEST(TraceIoTest, EmptyCaptureRoundTrips) {
  FlowCapture cap;
  cap.flow = 4;
  std::stringstream ss;
  write_flow_capture(ss, cap);
  auto loaded = read_flow_capture(ss);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().flow, 4u);
  EXPECT_EQ(loaded.value().data.sent_count(), 0u);
}

TEST(TraceIoTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/hsr_trace_test.txt";
  ASSERT_TRUE(save_flow_capture(path, sample_capture()).is_ok());
  auto loaded = load_flow_capture(path);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().data.sent_count(), 2u);
}

TEST(TraceIoTest, MissingFileIsNotFound) {
  auto loaded = load_flow_capture("/nonexistent/dir/trace.txt");
  EXPECT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

// --- Fault audit records ------------------------------------------------------

FlowCapture faulted_capture() {
  FlowCapture cap = sample_capture();
  FaultRecord f1;
  f1.when = TimePoint::from_ns(35000);
  f1.direction = 'A';
  f1.packet_id = 3;
  f1.seq = 2;
  f1.kind = net::PacketKind::kAck;
  f1.directive = 0;
  f1.action = 'X';
  f1.label = "ack-burst";
  cap.faults.push_back(f1);

  FaultRecord f2;
  f2.when = TimePoint::from_ns(40000);
  f2.direction = 'D';
  f2.packet_id = 1;
  f2.seq = 1;
  f2.kind = net::PacketKind::kData;
  f2.directive = 2;
  f2.action = 'L';
  f2.delay = Duration::millis(40);
  f2.label = "delay spike";  // whitespace must be sanitized on the wire
  cap.faults.push_back(f2);
  return cap;
}

TEST(TraceIoTest, FaultRecordsRoundTrip) {
  std::stringstream ss;
  write_flow_capture(ss, faulted_capture());
  auto loaded = read_flow_capture(ss);
  ASSERT_TRUE(loaded.is_ok());
  const auto& faults = loaded.value().faults;
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[0].direction, 'A');
  EXPECT_EQ(faults[0].action, 'X');
  EXPECT_EQ(faults[0].seq, 2u);
  EXPECT_EQ(faults[0].kind, net::PacketKind::kAck);
  EXPECT_EQ(faults[0].label, "ack-burst");
  EXPECT_EQ(faults[1].when, TimePoint::from_ns(40000));
  EXPECT_EQ(faults[1].delay, Duration::millis(40));
  EXPECT_EQ(faults[1].directive, 2u);
  EXPECT_EQ(faults[1].label, "delay_spike");  // sanitized, still one token
}

// A line with no tokens (blanks only, or the lone '\r' a CRLF copy leaves) is
// skipped before and after the header; it is never indexed as a record.
TEST(TraceIoTest, WhitespaceOnlyLinesAreSkipped) {
  std::stringstream ss(" \nhsrtrace-v2 flow=1\n \nD 1 0 0 1000 0 100 - 0\n\t\v\f\n\r\n");
  auto loaded = read_flow_capture(ss);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().flow, 1u);
  EXPECT_EQ(loaded.value().data.sent_count(), 1u);
}

TEST(TraceIoTest, CrlfCopyReadsBackEqualToTheLfOriginal) {
  std::stringstream lf;
  write_flow_capture(lf, faulted_capture());
  std::string crlf;
  for (const char c : lf.str()) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  crlf += "\r\n";  // and a blank CRLF line at the end
  std::stringstream in(crlf);
  auto loaded = read_flow_capture(in);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  std::stringstream back;
  write_flow_capture(back, loaded.value());
  EXPECT_EQ(back.str(), lf.str());
}

// --- Corruption diagnostics ---------------------------------------------------

TEST(TraceIoTest, BitFlippedFieldReportsLineAndToken) {
  std::stringstream ss;
  write_flow_capture(ss, sample_capture());
  std::string text = ss.str();
  // Corrupt the seq field of the second data record (line 3): "2" -> "2}".
  const auto pos = text.find("D 2 2");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "D 2 2}");

  std::stringstream corrupted(text);
  auto loaded = read_flow_capture(corrupted);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("'2}'"), std::string::npos)
      << loaded.status().message();
}

TEST(TraceIoTest, UnknownRecordTypeIsAnError) {
  std::stringstream ss("hsrtrace-v1 flow=1\nZ 1 2 3\n");
  auto loaded = read_flow_capture(ss);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.status().message().find("unknown record type"), std::string::npos);
}

TEST(TraceIoTest, WrongFieldCountNamesTheLine) {
  std::stringstream ss("hsrtrace-v1 flow=1\nD 1 2 3\n");
  auto loaded = read_flow_capture(ss);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("expected 9 fields"), std::string::npos);
}

// Packet ids are plain data to the reader: a record is built per line, so
// no id ever sizes a table.
TEST(TraceIoTest, AnyPacketIdLoadsAndRoundTrips) {
  const std::string text =
      "hsrtrace-v2 flow=1\n"
      "D 4611686018427387904 1 0 1400 1000 31000 - 0\n";
  std::stringstream in(text);
  auto loaded = read_flow_capture(in);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded.value().data.sent_count(), 1u);
  EXPECT_EQ(loaded.value().data.transmissions()[0].packet.id, std::uint64_t{1} << 62);

  std::stringstream out;
  write_flow_capture(out, loaded.value());
  EXPECT_EQ(out.str(), text);
}

// --- Truncation tolerance -----------------------------------------------------

TEST(TraceIoTest, TruncatedFinalLineIsTolerated) {
  std::stringstream ss;
  write_flow_capture(ss, sample_capture());
  std::string text = ss.str();
  // Chop the archive mid-record: drop the trailing newline plus a few bytes,
  // as if the writer was killed or the copy was torn.
  text.resize(text.size() - 5);

  std::stringstream truncated(text);
  auto loaded = read_flow_capture(truncated);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  // The torn record (the single ACK line) is dropped; the rest survives.
  EXPECT_EQ(loaded.value().data.sent_count(), 2u);
  EXPECT_EQ(loaded.value().acks.sent_count(), 0u);
}

TEST(TraceIoTest, CorruptLineBeforeEofStillFails) {
  // Same corruption NOT on the final line must still be an error: tolerance
  // is for torn tails only, not for silent mid-file damage.
  std::stringstream ss("hsrtrace-v1 flow=1\nD garbage\nA 3 0 2 52 35000 -1 Q 0\n");
  auto loaded = read_flow_capture(ss);
  EXPECT_FALSE(loaded.is_ok());
}

// --- Atomic save --------------------------------------------------------------

TEST(TraceIoTest, SaveLeavesNoTempFile) {
  const std::string path = testing::TempDir() + "/hsr_trace_atomic.txt";
  std::remove(path.c_str());
  ASSERT_TRUE(save_flow_capture(path, faulted_capture()).is_ok());
  // The temporary never survives a successful save.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  auto loaded = load_flow_capture(path);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().faults.size(), 2u);
  std::remove(path.c_str());
}

TEST(TraceIoTest, SaveOverwritesExistingArchive) {
  const std::string path = testing::TempDir() + "/hsr_trace_overwrite.txt";
  ASSERT_TRUE(save_flow_capture(path, sample_capture()).is_ok());
  FlowCapture cap;
  cap.flow = 77;
  ASSERT_TRUE(save_flow_capture(path, cap).is_ok());
  auto loaded = load_flow_capture(path);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().flow, 77u);
  EXPECT_EQ(loaded.value().data.sent_count(), 0u);
  std::remove(path.c_str());
}

TEST(TraceIoTest, SaveToUnwritableDirectoryFailsCleanly) {
  auto status = save_flow_capture("/nonexistent/dir/trace.txt", sample_capture());
  EXPECT_FALSE(status.is_ok());
}

}  // namespace
}  // namespace hsr::trace
