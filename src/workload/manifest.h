// Campaign manifest ("hsrmanifest-v1"): the durable record of which chunks
// of a streaming campaign have been committed, and how to trust them.
//
// A streaming campaign partitions its flow range into fixed chunks; each
// chunk is committed as its own hsrtrace-b2 file (tmp + fsync + atomic
// rename), and immediately afterwards the manifest is rewritten atomically
// with the new chunk's entry. After a SIGKILL or an ENOSPC, the manifest is
// therefore the exact set of chunks that are durably complete — resume
// verifies each listed chunk against its recorded size and CRC-32C, re-runs
// only the missing or damaged ranges, and the merged corpus comes out
// byte-identical to an uninterrupted run.
//
// The spec digest in the header pins the manifest to one (spec, seed,
// chunking) configuration: resuming with a different scale, seed or chunk
// size would silently splice incompatible flows, so a digest mismatch
// rejects the resume instead.
//
// Wire format (one entry per committed chunk, any order on disk; load()
// sorts by index):
//   hsrmanifest-v1 spec=<hex16> flows=<N> chunk_flows=<C> chunks=<K>
//   C <index> <first_flow> <flow_count> <flows> <quarantines> <bytes> <crc-hex8>
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/fs.h"
#include "util/status.h"

namespace hsr::workload {

inline constexpr char kManifestMagic[] = "hsrmanifest-v1";

// One committed chunk: its planned flow range plus the digest of the file
// that holds it.
struct ChunkEntry {
  std::uint64_t index = 0;       // chunk ordinal within the campaign
  std::uint64_t first_flow = 0;  // first planned flow index in the chunk
  std::uint64_t flow_count = 0;  // planned flows in the chunk (incl. quarantined)
  std::uint64_t flows = 0;       // 'F' frames the chunk file holds
  std::uint64_t quarantines = 0; // 'Q' frames
  std::uint64_t bytes = 0;       // committed file size
  std::uint32_t crc32c = 0;      // CRC-32C of the whole file's bytes

  friend bool operator==(const ChunkEntry&, const ChunkEntry&) = default;
};

struct CampaignManifest {
  std::uint64_t spec_digest = 0;  // manifest_digest() of the canonical spec text
  std::uint64_t total_flows = 0;  // planned flows in the whole campaign
  std::uint64_t chunk_flows = 0;  // planned flows per chunk (last may be short)
  std::vector<ChunkEntry> chunks; // committed chunks, sorted by index

  // Deterministic round-trip text ("hsrmanifest-v1"). parse() validates the
  // declared entry count against the lines present and rejects duplicate
  // chunk indices. Every number must parse whole (util::parse_number):
  // decimal, with the spec digest and the CRCs in hex.
  std::string to_text() const;
  [[nodiscard]] static util::StatusOr<CampaignManifest> parse(const std::string& text);

  friend bool operator==(const CampaignManifest&, const CampaignManifest&) = default;
};

// 64-bit FNV-1a over the canonical spec text — the pin that stops a resume
// from splicing chunks generated under a different configuration.
std::uint64_t manifest_digest(std::string_view canonical_text);

// Atomic save (write_file_atomic through the seam: tmp + fsync + rename) and
// load. The manifest on disk is always a complete, parseable snapshot.
[[nodiscard]] util::Status save_campaign_manifest(util::Fs& fs, const std::string& path,
                                                  const CampaignManifest& manifest);
[[nodiscard]] util::StatusOr<CampaignManifest> load_campaign_manifest(const std::string& path);

}  // namespace hsr::workload
