// hsrtrace-b2, the only binary trace format: the columnar reader must
// rebuild the exact FlowCapture the text writer serializes (lossless
// interconversion), keep everything before a torn final frame, refuse
// corruption with a frame index and a named reason (CRC / sequence /
// payload), skip unknown frame types, and reject the retired hsrtrace-b1
// magic by name.
#include "trace/trace_binary.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ios>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>

#include "radio/profiles.h"
#include "trace/trace_io.h"
#include "workload/scenario.h"

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

  Packet d3 = d1;
  d3.id = 4;
  d3.seq = 3;
  cap.data.on_send(d3, TimePoint::from_ns(40000));  // still in flight

  Packet a1;
  a1.id = 3;
  a1.flow = 9;
  a1.kind = net::PacketKind::kAck;
  a1.ack_next = 2;
  a1.size_bytes = 52;
  cap.acks.on_send(a1, TimePoint::from_ns(35000));
  cap.acks.on_drop(a1, TimePoint::from_ns(35000), net::DropCause::queue_overflow());

  FaultRecord f;
  f.when = TimePoint::from_ns(2000);
  f.direction = 'D';
  f.packet_id = 2;
  f.seq = 2;
  f.kind = net::PacketKind::kData;
  f.directive = 0;
  f.action = 'X';
  f.delay = Duration::millis(250);
  f.label = "blackout";
  cap.faults.push_back(f);
  return cap;
}

std::string text_of(const FlowCapture& cap) {
  std::ostringstream os;
  write_flow_capture(os, cap);
  return os.str();
}

std::string binary_corpus_of(const FlowCapture& cap) {
  std::ostringstream os;
  write_binary_trace_header(os, 1);
  write_flow_frame(os, cap, /*seq=*/0);
  return os.str();
}

TEST(TraceBinaryTest, RoundTripIsLosslessAgainstTextSerialization) {
  const FlowCapture original = sample_capture();
  std::istringstream in(binary_corpus_of(original));
  const auto corpus = read_binary_corpus(in);
  ASSERT_TRUE(corpus.is_ok()) << corpus.status().to_string();
  ASSERT_EQ(corpus.value().flows.size(), 1u);
  EXPECT_FALSE(corpus.value().torn_tail);
  EXPECT_EQ(corpus.value().declared_flow_count, 1u);

  // The text serializations — which cover every field, derived counters
  // included — must agree byte for byte.
  EXPECT_EQ(text_of(corpus.value().flows[0]), text_of(original));
}

TEST(TraceBinaryTest, OrganicFlowRoundTripsLosslessly) {
  // A real simulated flow exercises the codec over realistic columns:
  // long monotone id runs, delta-unfriendly transit jitter, drop causes.
  workload::FlowRunConfig cfg;
  cfg.profile = radio::mobile_lte_highspeed();
  cfg.duration = util::Duration::seconds(5);
  cfg.seed = 20157;
  const auto run = workload::run_flow(cfg);
  ASSERT_TRUE(run.status.is_ok());

  std::istringstream in(binary_corpus_of(run.capture));
  const auto corpus = read_binary_corpus(in);
  ASSERT_TRUE(corpus.is_ok()) << corpus.status().to_string();
  ASSERT_EQ(corpus.value().flows.size(), 1u);
  EXPECT_EQ(text_of(corpus.value().flows[0]), text_of(run.capture));
}

TEST(TraceBinaryTest, TornFinalFrameIsDroppedEverythingBeforeKept) {
  const FlowCapture cap = sample_capture();
  std::ostringstream os;
  write_binary_trace_header(os, 2);
  write_flow_frame(os, cap, 0);
  write_flow_frame(os, cap, 1);
  const std::string full = os.str();

  // Cut anywhere inside the second frame: the first flow survives, the torn
  // tail is flagged, and the read still succeeds.
  std::ostringstream probe;
  write_binary_trace_header(probe, 2);
  write_flow_frame(probe, cap, 0);
  const std::size_t second_frame_begins = probe.str().size();
  for (const std::size_t cut :
       {second_frame_begins + 1, second_frame_begins + 5, full.size() - 3}) {
    std::istringstream in(full.substr(0, cut));
    const auto corpus = read_binary_corpus(in);
    ASSERT_TRUE(corpus.is_ok()) << "cut=" << cut << ": " << corpus.status().to_string();
    EXPECT_TRUE(corpus.value().torn_tail) << "cut=" << cut;
    ASSERT_EQ(corpus.value().flows.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(text_of(corpus.value().flows[0]), text_of(cap));
  }
}

TEST(TraceBinaryTest, CorruptCompleteFrameIsAnErrorNamingTheFrame) {
  const FlowCapture cap = sample_capture();
  std::string corpus_bytes = binary_corpus_of(cap);
  // Scribble over the middle of the (complete) frame payload: with per-frame
  // CRC-32C, a v2 read MUST fail — no bit flip can silently decode — and the
  // diagnostic names both the frame and the reason.
  corpus_bytes[corpus_bytes.size() / 2] ^= 0x5a;
  corpus_bytes[corpus_bytes.size() / 2 + 1] ^= 0xff;

  std::istringstream in(corpus_bytes);
  const auto corpus = read_binary_corpus(in);
  ASSERT_FALSE(corpus.is_ok());
  EXPECT_NE(corpus.status().message().find("frame 0"), std::string::npos)
      << corpus.status().to_string();
  EXPECT_NE(corpus.status().message().find("crc32c mismatch"), std::string::npos)
      << corpus.status().to_string();
}

TEST(TraceBinaryTest, EverySingleByteFlipIsDetected) {
  // Exhaustive single-byte corruption across the whole frame region (type,
  // crc field, seq, size, payload): the CRC covers everything after itself,
  // and a corrupted CRC field no longer matches the intact rest, so each
  // position must yield an error or a torn tail — never a silent success.
  const FlowCapture cap = sample_capture();
  const std::string clean = binary_corpus_of(cap);
  const std::size_t frames_begin = kBinaryTraceMagicSize + 8;
  for (std::size_t pos = frames_begin; pos < clean.size(); ++pos) {
    std::string bytes = clean;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x41);
    std::istringstream in(bytes);
    const auto corpus = read_binary_corpus(in);
    if (corpus.is_ok()) {
      // Allowed only when the flipped size field turned the frame into a
      // torn tail (claimed length now runs past EOF) — and then the flow
      // must have been dropped, not returned corrupted.
      EXPECT_TRUE(corpus.value().torn_tail) << "pos=" << pos;
      EXPECT_TRUE(corpus.value().flows.empty()) << "pos=" << pos;
    } else {
      EXPECT_NE(corpus.status().message().find("frame 0"), std::string::npos)
          << "pos=" << pos << ": " << corpus.status().to_string();
    }
  }
}

TEST(TraceBinaryTest, OutOfOrderSequenceNumberIsAnError) {
  // A frame whose stored seq does not match its position in the file is the
  // signature of a mis-spliced archive (e.g. frames copied without
  // re-stamping): named, not tolerated.
  const FlowCapture cap = sample_capture();
  std::ostringstream os;
  write_binary_trace_header(os, 2);
  write_flow_frame(os, cap, 0);
  write_flow_frame(os, cap, 7);  // should be seq 1
  std::istringstream in(os.str());
  const auto corpus = read_binary_corpus(in);
  ASSERT_FALSE(corpus.is_ok());
  EXPECT_NE(corpus.status().message().find("frame 1"), std::string::npos)
      << corpus.status().to_string();
  EXPECT_NE(corpus.status().message().find("sequence mismatch"), std::string::npos)
      << corpus.status().to_string();
}

TEST(TraceBinaryTest, RetiredB1ArchivesAreRejectedByName) {
  // An empty hsrtrace-b1 archive: the retired magic plus a zero flow count.
  // It does not sniff as binary, so every file-level reader must refuse it
  // with a Status that names the magic.
  const std::string path = "trace_binary_test_retired_b1.bin";
  {
    std::ofstream f(path, std::ios::binary);
    f << "hsrtrace-b1\n" << std::string(8, '\0');
  }
  const auto verified = verify_trace_file(path);
  ASSERT_FALSE(verified.is_ok());
  EXPECT_NE(verified.status().message().find("hsrtrace-b1"), std::string::npos)
      << verified.status().to_string();
  const auto loaded = load_flow_capture_any(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.status().message().find("hsrtrace-b1"), std::string::npos)
      << loaded.status().to_string();
  std::remove(path.c_str());
}

TEST(TraceBinaryTest, BadMagicIsInvalidArgument) {
  std::istringstream in("hsrtrace-XX\n........");
  const auto corpus = read_binary_corpus(in);
  ASSERT_FALSE(corpus.is_ok());
}

// A directory opens as a stream, but every read of it fails: that is a read
// error, not a stream with a bad magic.
TEST(TraceBinaryTest, DirectoryStreamIsAReadError) {
  const std::string dir = testing::TempDir() + "trace_binary_test_dir";
  std::filesystem::create_directories(dir);
  std::ifstream in(dir, std::ios::binary);
  const bool opened = in.is_open();
  const auto corpus = read_binary_corpus(in);
  std::filesystem::remove(dir);
  ASSERT_TRUE(opened);
  ASSERT_FALSE(corpus.is_ok());
  EXPECT_EQ(corpus.status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(corpus.status().message(), "read failed");
}

// A stream buffer whose device fails once its bytes are consumed, the way
// std::filebuf reports a failed read(2): the throw sets the stream's badbit.
class FailingReadBuf : public std::streambuf {
 public:
  explicit FailingReadBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 protected:
  int_type underflow() override { throw std::ios_base::failure("device error"); }

 private:
  std::string bytes_;
};

TEST(TraceBinaryTest, FailedReadMidStreamIsNeitherAnEndNorATornTail) {
  const FlowCapture cap = sample_capture();
  std::ostringstream os;
  write_binary_trace_header(os, 2);
  write_flow_frame(os, cap, 0);
  const std::size_t second_frame_begins = os.str().size();
  write_flow_frame(os, cap, 1);
  const std::string full = os.str();
  // The read fails at a frame boundary, inside a frame header and inside a
  // payload.
  for (const std::size_t cut :
       {second_frame_begins, second_frame_begins + 5, full.size() - 3}) {
    FailingReadBuf buf(full.substr(0, cut));
    std::istream in(&buf);
    const auto corpus = read_binary_corpus(in);
    ASSERT_FALSE(corpus.is_ok()) << "cut=" << cut;
    EXPECT_EQ(corpus.status().code(), util::StatusCode::kInternal) << "cut=" << cut;
    EXPECT_EQ(corpus.status().message(), "read failed") << "cut=" << cut;
  }
}

TEST(TraceBinaryTest, UnknownFrameTypesAreSkipped) {
  const FlowCapture cap = sample_capture();
  std::ostringstream os;
  write_binary_trace_header(os, 1);
  // A future frame type this reader has never heard of — still CRC-framed,
  // so it is integrity-checked on the way past.
  std::string frame;
  encode_raw_frame('Z', "from-the-future", /*seq=*/0, frame);
  os.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  write_flow_frame(os, cap, /*seq=*/1);

  std::istringstream in(os.str());
  const auto corpus = read_binary_corpus(in);
  ASSERT_TRUE(corpus.is_ok()) << corpus.status().to_string();
  ASSERT_EQ(corpus.value().flows.size(), 1u);
  EXPECT_FALSE(corpus.value().torn_tail);
}

// A flow frame whose payload is `payload`, behind a header declaring one
// flow: a well-formed, CRC-valid archive around a crafted payload.
std::string archive_around(const std::string& payload) {
  std::ostringstream os;
  write_binary_trace_header(os, 1);
  std::string frame;
  encode_raw_frame('F', payload, /*seq=*/0, frame);
  os.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  return os.str();
}

// LEB128, as the columnar payload codes its counts.
std::string varint(std::uint64_t v) {
  std::string out;
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
  return out;
}

TEST(TraceBinaryTest, TransmissionCountBeyondThePayloadIsRejectedBeforeAllocating) {
  // Flow id 1, then a data direction claiming 2^40 transmissions with no
  // column bytes behind it: 48 bytes that must not size seven 8 TiB
  // columns.
  const std::string bytes = archive_around(varint(1) + varint(std::uint64_t{1} << 40));
  ASSERT_EQ(bytes.size(), 48u);
  std::istringstream in(bytes);
  BinaryTraceReader reader(in);
  ASSERT_TRUE(reader.open().is_ok());
  FlowCapture flow;
  QuarantineRecord quarantine;
  const auto frame = reader.next(&flow, &quarantine);
  ASSERT_FALSE(frame.is_ok());
  EXPECT_NE(frame.status().message().find("frame 0: bad transmission count"),
            std::string::npos)
      << frame.status().to_string();
}

TEST(TraceBinaryTest, FaultCountBeyondThePayloadIsRejectedBeforeAllocating) {
  // Two empty directions, then 2^40 fault records with nothing behind them.
  const std::string bytes =
      archive_around(varint(1) + varint(0) + varint(0) + varint(std::uint64_t{1} << 40));
  std::istringstream in(bytes);
  const auto corpus = read_binary_corpus(in);
  ASSERT_FALSE(corpus.is_ok());
  EXPECT_NE(corpus.status().message().find("frame 0: bad fault count"), std::string::npos)
      << corpus.status().to_string();
}

// Packet ids are archived data, not table indices: any u64 id decodes,
// verifies and re-encodes to the same bytes.
TEST(TraceBinaryTest, AnyPacketIdDecodesVerifiesAndReencodesIdentically) {
  for (const std::uint64_t id : {std::uint64_t{200'000'000'000}, ~std::uint64_t{0}}) {
    Transmission tx;
    tx.packet.id = id;
    tx.packet.seq = 1;
    tx.packet.size_bytes = 1400;
    tx.sent = TimePoint::from_ns(1000);
    tx.arrived = TimePoint::from_ns(31000);
    FlowCapture cap;
    cap.flow = 1;
    cap.data = DirectionCapture({tx});
    const std::string bytes = binary_corpus_of(cap);

    const std::string path = "trace_binary_test_large_id.b2";
    {
      std::ofstream f(path, std::ios::binary);
      f << bytes;
    }
    const auto verified = verify_trace_file(path);
    std::remove(path.c_str());
    ASSERT_TRUE(verified.is_ok()) << id << ": " << verified.status().to_string();
    EXPECT_TRUE(verified.value().intact);

    std::istringstream in(bytes);
    const auto corpus = read_binary_corpus(in);
    ASSERT_TRUE(corpus.is_ok()) << id << ": " << corpus.status().to_string();
    ASSERT_EQ(corpus.value().flows.size(), 1u);
    const FlowCapture& decoded = corpus.value().flows[0];
    ASSERT_EQ(decoded.data.sent_count(), 1u);
    EXPECT_EQ(decoded.data.transmissions()[0].packet.id, id);
    EXPECT_EQ(binary_corpus_of(decoded), bytes);
  }
}

// Each record keeps its own fate when a direction repeats a packet id (a
// hand-edited or foreign archive): the drop stays on the first record, the
// delivery on the second, and the conversion is lossless both ways.
TEST(TraceBinaryTest, RepeatedPacketIdRoundTripsTextToBinaryToText) {
  const std::string text =
      "hsrtrace-v2 flow=1\n"
      "D 5 1 0 1400 1000 -1 B 0\n"
      "D 5 1 0 1400 2000 32000 - 1\n"
      "D 6 2 0 1400 3000 -1 - 0\n";
  std::istringstream text_in(text);
  const auto loaded = read_flow_capture(text_in);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();

  std::istringstream bin(binary_corpus_of(loaded.value()));
  const auto corpus = read_binary_corpus(bin);
  ASSERT_TRUE(corpus.is_ok()) << corpus.status().to_string();
  ASSERT_EQ(corpus.value().flows.size(), 1u);
  EXPECT_EQ(text_of(corpus.value().flows[0]), text);
  EXPECT_EQ(corpus.value().flows[0].data.lost_count(), 1u);
}

// A data direction of one transmission dropped with the cause bytes
// `cause`, then no ACKs and no faults.
std::string archive_with_drop_cause(const std::string& cause) {
  const std::string data_direction =
      varint(1) +                    // one transmission
      varint(2) + varint(2) +        // id 1, seq 1 (zigzag deltas)
      varint(0) +                    // ack_next 0
      varint(1) + varint(1400) +     // size run
      varint(1) + varint(0) +        // retx run
      varint(0) +                    // sent at 0
      varint(1) + varint(2) +        // fate run: dropped
      cause;
  return archive_around(varint(1) + data_direction + varint(0) + varint(0));
}

// The category byte and the reserved byte after it (0 in every valid
// archive) of a Bernoulli drop, before the directive.
std::string bernoulli_cause(char reserved = '\0') {
  return std::string{static_cast<char>(net::DropCategory::kBernoulli), reserved};
}

// Reads `bytes` as a corpus and verifies them as the file `path` (one name
// per test: ctest runs the tests in parallel in one directory).
util::Status read_and_verify(const std::string& bytes, const std::string& path,
                             std::string* text) {
  std::istringstream in(bytes);
  const auto corpus = read_binary_corpus(in);
  {
    std::ofstream f(path, std::ios::binary);
    f << bytes;
  }
  const auto verified = verify_trace_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(corpus.status().to_string(), verified.status().to_string());
  if (!corpus.is_ok()) return corpus.status();
  *text = text_of(corpus.value().flows.at(0));
  return util::Status::ok();
}

// The byte after a drop's category is reserved and always 0: it held the
// depth of the retired composite-component path, so an archive that still
// carries a path is refused by name instead of misread.
TEST(TraceBinaryTest, NonZeroComponentDepthIsRejected) {
  const std::string path = "trace_binary_test_component.b2";
  std::string text;
  ASSERT_TRUE(
      read_and_verify(archive_with_drop_cause(bernoulli_cause() + varint(0)), path, &text)
          .is_ok());
  EXPECT_NE(text.find(" B "), std::string::npos) << text;

  for (const char depth : {'\x01', '\x06', '\xff'}) {
    const std::string with_path = bernoulli_cause(depth) + varint(1) + varint(0);
    const util::Status status =
        read_and_verify(archive_with_drop_cause(with_path), path, &text);
    ASSERT_FALSE(status.is_ok()) << int{depth};
    EXPECT_NE(status.message().find("frame 0: bad component depth"), std::string::npos)
        << status.to_string();
  }
}

// Directives are archived plus one, so the stored value 2^31 is the largest
// int32 directive and anything above it cannot be spelled.
TEST(TraceBinaryTest, DirectiveBeyondInt32IsRejected) {
  const std::uint64_t largest = std::uint64_t{1} << 31;
  const std::string path = "trace_binary_test_directive.b2";
  std::string text;
  ASSERT_TRUE(read_and_verify(archive_with_drop_cause(bernoulli_cause() + varint(largest)),
                              path, &text)
                  .is_ok());
  EXPECT_NE(text.find(" B#2147483647 "), std::string::npos) << text;

  const std::string beyond =
      archive_with_drop_cause(bernoulli_cause() + varint(largest + 1));
  const util::Status status = read_and_verify(beyond, path, &text);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("frame 0: bad directive"), std::string::npos)
      << status.to_string();
}

TEST(TraceBinaryTest, QuarantineFramesRoundTrip) {
  QuarantineRecord rec;
  rec.flow_index = 42;
  rec.provider = "China Mobile";
  rec.campaign = "October 2015";
  rec.status_code = 8;
  rec.message = "event budget exhausted";
  rec.downlink_plan = "hsrfaultplan-v1 directives=0\n";
  rec.uplink_plan = "";

  // The path ChunkFileWriter::append_quarantine takes.
  std::string frame;
  encode_quarantine_frame(rec, /*seq=*/0, frame);
  std::ostringstream os;
  write_binary_trace_header(os, 0);
  os << frame;
  std::istringstream in(os.str());
  const auto corpus = read_binary_corpus(in);
  ASSERT_TRUE(corpus.is_ok()) << corpus.status().to_string();
  EXPECT_TRUE(corpus.value().flows.empty());
  ASSERT_EQ(corpus.value().quarantined.size(), 1u);
  const QuarantineRecord& q = corpus.value().quarantined[0];
  EXPECT_EQ(q.flow_index, 42u);
  EXPECT_EQ(q.provider, "China Mobile");
  EXPECT_EQ(q.campaign, "October 2015");
  EXPECT_EQ(q.status_code, 8);
  EXPECT_EQ(q.message, "event budget exhausted");
  EXPECT_EQ(q.downlink_plan, "hsrfaultplan-v1 directives=0\n");
  EXPECT_TRUE(q.uplink_plan.empty());
}

TEST(TraceBinaryTest, LoadFlowCaptureAnyReadsBothFormats) {
  const FlowCapture cap = sample_capture();
  const std::string text_path = "trace_binary_test_any.txt";
  const std::string bin_path = "trace_binary_test_any.bin";
  ASSERT_TRUE(save_flow_capture(text_path, cap).is_ok());
  ASSERT_TRUE(save_capture_archive(bin_path, {cap}).is_ok());

  const auto from_text = load_flow_capture_any(text_path);
  ASSERT_TRUE(from_text.is_ok()) << from_text.status().to_string();
  const auto from_bin = load_flow_capture_any(bin_path);
  ASSERT_TRUE(from_bin.is_ok()) << from_bin.status().to_string();
  EXPECT_EQ(text_of(from_text.value()), text_of(cap));
  EXPECT_EQ(text_of(from_bin.value()), text_of(cap));

  // nth selection: a text archive holds exactly one flow.
  EXPECT_FALSE(load_flow_capture_any(text_path, 1).is_ok());
  EXPECT_FALSE(load_flow_capture_any(bin_path, 1).is_ok());

  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(TraceBinaryTest, SniffDistinguishesFormatsAndRewinds) {
  const FlowCapture cap = sample_capture();
  std::istringstream bin(binary_corpus_of(cap));
  EXPECT_TRUE(sniff_binary_trace(bin));
  const auto corpus = read_binary_corpus(bin);  // stream must be rewound
  ASSERT_TRUE(corpus.is_ok()) << corpus.status().to_string();

  std::istringstream text(text_of(cap));
  EXPECT_FALSE(sniff_binary_trace(text));
  const auto reread = read_flow_capture(text);
  ASSERT_TRUE(reread.is_ok()) << reread.status().to_string();
}

}  // namespace
}  // namespace hsr::trace
