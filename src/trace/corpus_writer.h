// Chunked, crash-safe corpus writing for streaming campaign generation.
//
// The previous streaming writer gave each ThreadPool worker one spill shard
// for the whole campaign — nothing was durable until the final merge, so an
// ENOSPC or SIGKILL at flow 99,000 of 100,000 threw everything away. The
// chunked writer makes the unit of durability small and deterministic: the
// campaign is partitioned into fixed ranges of flow indices ("chunks"), a
// worker runs one chunk at a time, and each finished chunk is committed as
// its own hsrtrace-b2 file via write-to-tmp + fsync + atomic rename. A
// chunk's bytes depend only on (spec, chunk index) — never on thread count
// or interruption history — so a resumed campaign re-runs exactly the
// missing chunks and still produces a byte-identical corpus.
//
// Chunk file layout: a normal hsrtrace-b2 stream (header flow count =
// kUnknownFlowCount) whose frames are the chunk's flows in index order.
// Besides 'F'/'Q' frames it may carry sidecar frames (e.g. 'S' per-flow
// stats samples) that the merge surfaces to the caller and strips from the
// final corpus. All I/O goes through the util::Fs seam so the crash-safety
// tests can script ENOSPC / short writes / torn renames against it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace_binary.h"
#include "util/fs.h"
#include "util/status.h"

namespace hsr::trace {

// Writes one chunk file. Single-threaded use (one worker owns one chunk);
// distinct ChunkFileWriters never contend. Appends see bounded transient
// retry; any hard failure leaves the final path untouched (only the .tmp is
// dirty, and abandon() cleans it up best-effort).
class ChunkFileWriter {
 public:
  // What the manifest records per committed chunk.
  struct Info {
    std::uint64_t bytes = 0;        // committed file size
    std::uint32_t crc32c = 0;       // checksum of the whole file's bytes
    std::uint64_t flows = 0;        // 'F' frames
    std::uint64_t quarantines = 0;  // 'Q' frames
  };

  // `path` is the final (post-rename) chunk path; writing happens at
  // `path + ".tmp"`.
  ChunkFileWriter(util::Fs& fs, std::string path);

  [[nodiscard]] util::Status open();
  [[nodiscard]] util::Status append_flow(const FlowCapture& capture);
  [[nodiscard]] util::Status append_quarantine(const QuarantineRecord& record);
  // Sidecar frame of an arbitrary type (stripped from the merged corpus).
  [[nodiscard]] util::Status append_raw(char type, std::string_view payload);

  // Syncs, closes and atomically renames the tmp into place. Returns the
  // committed file's info (the manifest entry's digest fields).
  [[nodiscard]] util::StatusOr<Info> commit();
  // Error-path cleanup: closes and removes the tmp file, best-effort.
  void abandon();

  const std::string& path() const { return path_; }

 private:
  util::Status append_frame_bytes(const std::string& frame);

  util::Fs& fs_;
  std::string path_;
  std::string tmp_;
  std::unique_ptr<util::WritableFile> file_;
  std::string scratch_;  // reused frame-encoding buffer
  Info info_;
  std::uint64_t next_seq_ = 0;
};

struct CorpusMergeResult {
  std::uint64_t flows = 0;        // flow frames in the corpus
  std::uint64_t quarantines = 0;  // quarantine frames in the corpus
  std::uint64_t bytes = 0;        // final corpus file size
};

// Concatenates committed chunk files (given in flow-index order) into the
// final corpus, atomically: header with the exact flow count, every 'F'/'Q'
// frame re-stamped with its corpus-wide sequence number, sidecar frames
// stripped. `on_frame` is invoked for EVERY chunk frame in stream order
// (types 'F', 'Q' and sidecars alike) before the frame is copied or
// dropped — the streaming-stats absorption hook; a non-OK return aborts the
// merge. On any failure the destination is left exactly as it was.
// `total_flow_frames` must equal the number of 'F' frames the chunks hold
// (the manifest knows) — it is written into the header up front.
[[nodiscard]] util::StatusOr<CorpusMergeResult> merge_corpus_chunks(
    util::Fs& fs, const std::vector<std::string>& chunk_paths,
    const std::string& corpus_path, std::uint64_t total_flow_frames,
    const std::function<util::Status(char type, const std::string& payload)>&
        on_frame);

// Reads `path` and returns the CRC-32C of its raw bytes — the digest used
// to decide whether a surviving chunk can be trusted on resume. A read that
// fails before the end of the file is an error, never a partial digest.
[[nodiscard]] util::StatusOr<std::uint32_t> crc32c_of_file(const std::string& path);

}  // namespace hsr::trace
