// Chunked corpus writing: committed chunks merged in index order must be
// byte-identical to direct in-order writing for ANY chunk partition (merge
// re-stamps frame sequence numbers), sidecar frames must be surfaced to the
// merge hook and stripped from the corpus, and every failure mode must
// leave committed files exactly as they were.
#include "trace/corpus_writer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/io_fault.h"
#include "trace/trace_binary.h"
#include "util/fs.h"

namespace hsr::trace {
namespace {

FlowCapture make_capture(std::uint64_t index) {
  FlowCapture cap;
  cap.flow = static_cast<net::FlowId>(index);
  for (std::uint64_t i = 0; i < 3 + index % 4; ++i) {
    Packet p;
    p.id = i + 1;
    p.flow = cap.flow;
    p.kind = net::PacketKind::kData;
    p.seq = i + 1;
    p.size_bytes = 1400;
    const TimePoint sent = TimePoint::from_ns(static_cast<std::int64_t>(1000 * (i + 1)));
    cap.data.on_send(p, sent);
    if (i % 3 != 2) {
      cap.data.on_deliver(p, sent, sent + util::Duration::millis(20));
    } else {
      cap.data.on_drop(p, sent, net::DropCause::queue_overflow());
    }
  }
  return cap;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

// The reference a merge must reproduce: header with the exact flow count,
// frames in order, sequence numbers stamped with the corpus-wide ordinal.
std::string direct_corpus(const std::vector<FlowCapture>& caps) {
  std::ostringstream os;
  write_binary_trace_header(os, caps.size());
  std::uint64_t seq = 0;
  for (const auto& cap : caps) write_flow_frame(os, cap, seq++);
  return os.str();
}

util::Status keep_all_frames(char, const std::string&) { return util::Status(); }

TEST(ChunkFileWriterTest, MergeIsByteIdenticalForAnyChunkPartition) {
  constexpr std::uint64_t kFlows = 13;
  std::vector<FlowCapture> caps;
  for (std::uint64_t i = 0; i < kFlows; ++i) caps.push_back(make_capture(i));
  const std::string want = direct_corpus(caps);
  util::Fs& fs = util::Fs::real();

  for (const std::uint64_t chunk_flows : {1u, 3u, 5u, 13u}) {
    std::vector<std::string> chunk_paths;
    for (std::uint64_t first = 0; first < kFlows; first += chunk_flows) {
      ChunkFileWriter writer(
          fs, "corpus_writer_test_chunk_" + std::to_string(first) + ".hsrb");
      ASSERT_TRUE(writer.open().is_ok());
      for (std::uint64_t i = first; i < std::min(first + chunk_flows, kFlows); ++i) {
        ASSERT_TRUE(writer.append_flow(caps[i]).is_ok());
      }
      const auto info = writer.commit();
      ASSERT_TRUE(info.is_ok()) << info.status().to_string();
      chunk_paths.push_back(writer.path());
    }

    const std::string corpus_path = "corpus_writer_test_merge.hsrb";
    const auto merged =
        merge_corpus_chunks(fs, chunk_paths, corpus_path, kFlows, keep_all_frames);
    ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();
    EXPECT_EQ(merged.value().flows, kFlows);
    EXPECT_EQ(merged.value().quarantines, 0u);

    const std::string got = read_file(corpus_path);
    EXPECT_EQ(got, want) << "chunk_flows=" << chunk_flows;
    EXPECT_EQ(merged.value().bytes, want.size());

    std::remove(corpus_path.c_str());
    for (const auto& p : chunk_paths) std::remove(p.c_str());
  }
}

TEST(ChunkFileWriterTest, CommitInfoMatchesTheCommittedFile) {
  util::Fs& fs = util::Fs::real();
  const std::string path = "corpus_writer_test_info.hsrb";
  ChunkFileWriter writer(fs, path);
  ASSERT_TRUE(writer.open().is_ok());
  ASSERT_TRUE(writer.append_flow(make_capture(0)).is_ok());
  ASSERT_TRUE(writer.append_flow(make_capture(1)).is_ok());
  QuarantineRecord rec;
  rec.flow_index = 2;
  rec.provider = "China Unicom";
  ASSERT_TRUE(writer.append_quarantine(rec).is_ok());
  const auto info = writer.commit();
  ASSERT_TRUE(info.is_ok()) << info.status().to_string();

  EXPECT_EQ(info.value().flows, 2u);
  EXPECT_EQ(info.value().quarantines, 1u);
  const auto size = fs.file_size(path);
  ASSERT_TRUE(size.is_ok());
  EXPECT_EQ(info.value().bytes, size.value());
  const auto crc = crc32c_of_file(path);
  ASSERT_TRUE(crc.is_ok());
  EXPECT_EQ(info.value().crc32c, crc.value());
  EXPECT_FALSE(fs.exists(path + ".tmp"));
  std::remove(path.c_str());
}

// A read that fails before end of file must not yield the CRC of the bytes
// read so far: a directory opens but every read of it fails.
TEST(ChunkFileWriterTest, CrcOfAnUnreadablePathIsAnError) {
  const std::string dir = "corpus_writer_test_crc_dir";
  ASSERT_TRUE(util::Fs::real().create_directories(dir).is_ok());
  const auto crc = crc32c_of_file(dir);
  std::remove(dir.c_str());
  ASSERT_FALSE(crc.is_ok()) << "crc " << crc.value();
  EXPECT_NE(crc.status().message().find("read failed"), std::string::npos)
      << crc.status().to_string();
}

TEST(ChunkFileWriterTest, SidecarFramesSurfaceToTheHookAndAreStripped) {
  util::Fs& fs = util::Fs::real();
  const std::string chunk_path = "corpus_writer_test_sidecar_chunk.hsrb";
  ChunkFileWriter writer(fs, chunk_path);
  ASSERT_TRUE(writer.open().is_ok());
  ASSERT_TRUE(writer.append_flow(make_capture(0)).is_ok());
  ASSERT_TRUE(writer.append_raw('S', "sample-0").is_ok());
  QuarantineRecord rec;
  rec.flow_index = 1;
  ASSERT_TRUE(writer.append_quarantine(rec).is_ok());
  ASSERT_TRUE(writer.append_raw('S', "sample-1").is_ok());
  ASSERT_TRUE(writer.commit().is_ok());

  const std::string corpus_path = "corpus_writer_test_sidecar.hsrb";
  std::vector<std::pair<char, std::string>> seen;
  const auto merged = merge_corpus_chunks(
      fs, {chunk_path}, corpus_path, 1,
      [&seen](char type, const std::string& payload) {
        seen.emplace_back(type, payload);
        return util::Status();
      });
  ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();

  // The hook saw every frame in stream order, sidecars included.
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].first, 'F');
  EXPECT_EQ(seen[1].first, 'S');
  EXPECT_EQ(seen[1].second, "sample-0");
  EXPECT_EQ(seen[2].first, 'Q');
  EXPECT_EQ(seen[3].first, 'S');
  EXPECT_EQ(seen[3].second, "sample-1");

  // The corpus holds only the 'F' and 'Q' frames, seq-re-stamped.
  std::ifstream in(corpus_path, std::ios::binary);
  const auto corpus = read_binary_corpus(in);
  ASSERT_TRUE(corpus.is_ok()) << corpus.status().to_string();
  EXPECT_EQ(corpus.value().declared_flow_count, 1u);
  ASSERT_EQ(corpus.value().flows.size(), 1u);
  ASSERT_EQ(corpus.value().quarantined.size(), 1u);
  EXPECT_EQ(corpus.value().quarantined[0].flow_index, 1u);
  std::remove(chunk_path.c_str());
  std::remove(corpus_path.c_str());
}

TEST(ChunkFileWriterTest, AbandonRemovesTheTmpAndNeverTouchesTheFinalPath) {
  util::Fs& fs = util::Fs::real();
  const std::string path = "corpus_writer_test_abandon.hsrb";
  {
    ChunkFileWriter writer(fs, path);
    ASSERT_TRUE(writer.open().is_ok());
    ASSERT_TRUE(writer.append_flow(make_capture(0)).is_ok());
    EXPECT_TRUE(fs.exists(path + ".tmp"));
    writer.abandon();
  }
  EXPECT_FALSE(fs.exists(path + ".tmp"));
  EXPECT_FALSE(fs.exists(path));
}

TEST(ChunkFileWriterTest, FailedCommitLeavesNoFinalFile) {
  fault::IoFaultPlan plan;
  plan.fail_next(fault::IoOp::kRename, ".hsrb", "chunk-rename");
  fault::FaultInjectingFs fs(plan, util::Fs::real());

  const std::string path = "corpus_writer_test_failed_commit.hsrb";
  ChunkFileWriter writer(fs, path);
  ASSERT_TRUE(writer.open().is_ok());
  ASSERT_TRUE(writer.append_flow(make_capture(0)).is_ok());
  const auto info = writer.commit();
  ASSERT_FALSE(info.is_ok());
  writer.abandon();
  EXPECT_FALSE(util::Fs::real().exists(path));
  EXPECT_FALSE(util::Fs::real().exists(path + ".tmp"));
  EXPECT_EQ(fs.faults_triggered(), 1u);
}

TEST(ChunkFileWriterTest, MergeFailureLeavesTheDestinationUntouched) {
  util::Fs& real = util::Fs::real();
  const std::string chunk_path = "corpus_writer_test_mf_chunk.hsrb";
  {
    ChunkFileWriter writer(real, chunk_path);
    ASSERT_TRUE(writer.open().is_ok());
    ASSERT_TRUE(writer.append_flow(make_capture(0)).is_ok());
    ASSERT_TRUE(writer.commit().is_ok());
  }

  // A previous (good) corpus sits at the destination; the failed merge must
  // not damage it.
  const std::string corpus_path = "corpus_writer_test_mf.hsrb";
  const std::string previous = direct_corpus({make_capture(7)});
  ASSERT_TRUE(util::write_file_atomic(real, corpus_path, previous).is_ok());

  fault::IoFaultPlan plan;
  plan.torn_rename("corpus_writer_test_mf.hsrb", "merge-torn");
  fault::FaultInjectingFs faulty(plan, real);
  const auto merged =
      merge_corpus_chunks(faulty, {chunk_path}, corpus_path, 1, keep_all_frames);
  ASSERT_FALSE(merged.is_ok());
  EXPECT_EQ(read_file(corpus_path), previous);
  // The committed chunk is untouched too: a retry can redo just the merge.
  const auto chunk_crc = crc32c_of_file(chunk_path);
  ASSERT_TRUE(chunk_crc.is_ok());
  std::remove(chunk_path.c_str());
  std::remove(corpus_path.c_str());
  std::remove((corpus_path + ".tmp").c_str());
}

}  // namespace
}  // namespace hsr::trace
