#include "trace/corpus_writer.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "util/crc32c.h"

namespace hsr::trace {

namespace {

// Header bytes for a b2 stream, as a string (the seam appends strings).
std::string header_bytes(std::uint64_t flow_count) {
  std::ostringstream os;
  write_binary_trace_header(os, flow_count);
  return os.str();
}

}  // namespace

ChunkFileWriter::ChunkFileWriter(util::Fs& fs, std::string path)
    : fs_(fs), path_(std::move(path)), tmp_(path_ + ".tmp") {}

util::Status ChunkFileWriter::open() {
  util::Status status = util::retry_transient([&] {
    auto file = fs_.open_for_write(tmp_);
    if (!file.is_ok()) return file.status();
    file_ = std::move(file.value());
    return util::Status::ok();
  });
  if (!status.is_ok()) return status;
  // Chunk headers declare kUnknownFlowCount: the exact count only exists in
  // the manifest entry, and the merge writes the real total.
  return append_frame_bytes(header_bytes(kUnknownFlowCount));
}

util::Status ChunkFileWriter::append_frame_bytes(const std::string& frame) {
  if (file_ == nullptr) {
    return util::Status::failed_precondition("chunk writer not open: " + tmp_);
  }
  util::Status status =
      util::retry_transient([&] { return file_->append(frame); });
  if (!status.is_ok()) return status;
  // Account only bytes that actually landed — the digest must match the
  // committed file exactly.
  info_.bytes += frame.size();
  info_.crc32c = util::crc32c(info_.crc32c, frame.data(), frame.size());
  return util::Status::ok();
}

util::Status ChunkFileWriter::append_flow(const FlowCapture& capture) {
  encode_flow_frame(capture, next_seq_, scratch_);
  util::Status status = append_frame_bytes(scratch_);
  if (!status.is_ok()) return status;
  ++next_seq_;
  ++info_.flows;
  return util::Status::ok();
}

util::Status ChunkFileWriter::append_quarantine(const QuarantineRecord& record) {
  encode_quarantine_frame(record, next_seq_, scratch_);
  util::Status status = append_frame_bytes(scratch_);
  if (!status.is_ok()) return status;
  ++next_seq_;
  ++info_.quarantines;
  return util::Status::ok();
}

util::Status ChunkFileWriter::append_raw(char type, std::string_view payload) {
  encode_raw_frame(type, payload, next_seq_, scratch_);
  util::Status status = append_frame_bytes(scratch_);
  if (!status.is_ok()) return status;
  ++next_seq_;
  return util::Status::ok();
}

util::StatusOr<ChunkFileWriter::Info> ChunkFileWriter::commit() {
  if (file_ == nullptr) {
    return util::Status::failed_precondition("chunk writer not open: " + tmp_);
  }
  util::Status status = util::retry_transient([&] { return file_->sync(); });
  if (status.is_ok()) status = file_->close();
  file_.reset();
  if (!status.is_ok()) return status;
  status = util::retry_transient([&] { return fs_.rename_file(tmp_, path_); });
  if (!status.is_ok()) return status;
  return info_;
}

void ChunkFileWriter::abandon() {
  if (file_ != nullptr) {
    (void)file_->close();
    file_.reset();
  }
  (void)fs_.remove_file(tmp_);
}

util::StatusOr<CorpusMergeResult> merge_corpus_chunks(
    util::Fs& fs, const std::vector<std::string>& chunk_paths,
    const std::string& corpus_path, std::uint64_t total_flow_frames,
    const std::function<util::Status(char type, const std::string& payload)>&
        on_frame) {
  const std::string tmp = corpus_path + ".tmp";
  std::unique_ptr<util::WritableFile> out;
  util::Status status = util::retry_transient([&] {
    auto file = fs.open_for_write(tmp);
    if (!file.is_ok()) return file.status();
    out = std::move(file.value());
    return util::Status::ok();
  });
  if (!status.is_ok()) return status;

  // Every early return removes the half-written tmp: the destination corpus
  // must never exist in a partial state.
  const auto fail = [&](util::Status s) -> util::StatusOr<CorpusMergeResult> {
    if (out != nullptr) (void)out->close();
    (void)fs.remove_file(tmp);
    return s;
  };

  CorpusMergeResult result;
  const std::string header = header_bytes(total_flow_frames);
  status = util::retry_transient([&] { return out->append(header); });
  if (!status.is_ok()) return fail(status);
  result.bytes = header.size();

  std::uint64_t out_seq = 0;
  std::string scratch;
  char type = 0;
  std::string payload;
  for (const std::string& chunk_path : chunk_paths) {
    std::ifstream in(chunk_path, std::ios::binary);
    if (!in) return fail(util::Status::not_found("cannot open chunk: " + chunk_path));
    BinaryTraceReader reader(in);
    status = reader.open();
    if (!status.is_ok()) {
      return fail(util::Status::invalid_argument(chunk_path + ": " + status.message()));
    }
    for (;;) {
      auto frame = reader.next_raw(&type, &payload);
      if (!frame.is_ok()) {
        return fail(util::Status::invalid_argument(chunk_path + ": " +
                                                   frame.status().message()));
      }
      if (frame.value() == BinaryTraceReader::Frame::kEnd) break;
      if (frame.value() == BinaryTraceReader::Frame::kTorn) {
        // Chunks are committed atomically and digest-verified before a
        // merge, so a torn chunk here is corruption, not a crash artifact.
        return fail(util::Status::invalid_argument(chunk_path + ": torn chunk file"));
      }
      status = on_frame(type, payload);
      if (!status.is_ok()) return fail(status);
      const bool is_flow = frame.value() == BinaryTraceReader::Frame::kFlow;
      const bool is_quarantine =
          frame.value() == BinaryTraceReader::Frame::kQuarantine;
      if (!is_flow && !is_quarantine) continue;  // sidecar: stripped
      // Re-stamp with the corpus-wide ordinal (the CRC is recomputed over
      // the new sequence number).
      encode_raw_frame(type, payload, out_seq, scratch);
      status = util::retry_transient([&] { return out->append(scratch); });
      if (!status.is_ok()) return fail(status);
      ++out_seq;
      result.bytes += scratch.size();
      if (is_flow) ++result.flows;
      if (is_quarantine) ++result.quarantines;
    }
  }

  if (result.flows != total_flow_frames) {
    return fail(util::Status::internal(
        "merge expected " + std::to_string(total_flow_frames) +
        " flow frames, chunks held " + std::to_string(result.flows)));
  }
  status = util::retry_transient([&] { return out->sync(); });
  if (status.is_ok()) status = out->close();
  if (!status.is_ok()) return fail(status);
  out.reset();
  status = util::retry_transient([&] { return fs.rename_file(tmp, corpus_path); });
  if (!status.is_ok()) {
    (void)fs.remove_file(tmp);
    return status;
  }
  return result;
}

util::StatusOr<std::uint32_t> crc32c_of_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::not_found("cannot open: " + path);
  char buf[1 << 16];
  std::uint32_t crc = 0;
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    crc = util::crc32c(crc, buf, static_cast<std::size_t>(in.gcount()));
  }
  // Only a clean end of file completes the digest; a failed read (a
  // directory, an I/O error) must not pass for the CRC of a shorter file.
  if (in.bad() || !in.eof()) return util::Status::internal("read failed: " + path);
  return crc;
}

}  // namespace hsr::trace
