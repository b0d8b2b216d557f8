#include "workload/manifest.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/format.h"
#include "util/text.h"

namespace hsr::workload {

namespace {

util::Status manifest_error(std::size_t line, const std::string& what) {
  return util::Status::invalid_argument("manifest line " + std::to_string(line) +
                                        ": " + what);
}

bool by_index(const ChunkEntry& a, const ChunkEntry& b) { return a.index < b.index; }

}  // namespace

std::string CampaignManifest::to_text() const {
  std::vector<ChunkEntry> sorted = chunks;
  std::sort(sorted.begin(), sorted.end(), by_index);
  std::ostringstream os;
  os << kManifestMagic << " spec=" << util::format_hex(spec_digest, 16)
     << " flows=" << total_flows << " chunk_flows=" << chunk_flows
     << " chunks=" << sorted.size() << "\n";
  for (const ChunkEntry& c : sorted) {
    os << "C " << c.index << ' ' << c.first_flow << ' ' << c.flow_count << ' '
       << c.flows << ' ' << c.quarantines << ' ' << c.bytes << ' '
       << util::format_hex(c.crc32c, 8) << "\n";
  }
  return os.str();
}

util::StatusOr<CampaignManifest> CampaignManifest::parse(const std::string& text) {
  util::LineReader lines(text);
  if (!lines.next()) return util::Status::invalid_argument("empty manifest");
  const std::vector<std::string_view>& header = lines.tokens();
  if (header[0] != kManifestMagic) {
    return util::Status::invalid_argument("not an " + std::string(kManifestMagic) +
                                          " file (got '" + std::string(header[0]) + "')");
  }
  const std::size_t header_line = lines.line_number();
  CampaignManifest manifest;
  std::uint64_t declared_chunks = 0;
  bool saw_spec = false, saw_flows = false, saw_chunk_flows = false, saw_chunks = false;
  for (std::size_t i = 1; i < header.size(); ++i) {
    const std::string_view field = header[i];
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      return manifest_error(header_line,
                            "malformed header field '" + std::string(field) + "'");
    }
    const std::string key(field.substr(0, eq));
    const std::string_view value = field.substr(eq + 1);
    std::uint64_t parsed = 0;
    if (!util::parse_number(value, parsed, key == "spec" ? 16 : 10)) {
      return manifest_error(header_line, "bad value for '" + key + "': '" +
                                             std::string(value) + "'");
    }
    if (key == "spec") {
      manifest.spec_digest = parsed;
      saw_spec = true;
    } else if (key == "flows") {
      manifest.total_flows = parsed;
      saw_flows = true;
    } else if (key == "chunk_flows") {
      manifest.chunk_flows = parsed;
      saw_chunk_flows = true;
    } else if (key == "chunks") {
      declared_chunks = parsed;
      saw_chunks = true;
    } else {
      return manifest_error(header_line, "unknown header field '" + key + "'");
    }
  }
  if (!saw_spec || !saw_flows || !saw_chunk_flows || !saw_chunks) {
    return manifest_error(header_line,
                          "header missing spec=/flows=/chunk_flows=/chunks=");
  }
  if (manifest.chunk_flows == 0) {
    return manifest_error(header_line, "chunk_flows must be positive");
  }

  // Entries keep their line numbers until the duplicate check has run.
  std::vector<std::pair<ChunkEntry, std::size_t>> entries;
  while (lines.next()) {
    const std::vector<std::string_view>& t = lines.tokens();
    const std::size_t line_no = lines.line_number();
    if (t[0] != "C") {
      return manifest_error(line_no, "expected a 'C' chunk entry, got '" +
                                         std::string(t[0]) + "'");
    }
    if (t.size() < 8) return manifest_error(line_no, "truncated chunk entry");
    if (t.size() > 8) return manifest_error(line_no, "trailing tokens after chunk entry");
    ChunkEntry entry;
    const std::pair<const char*, std::uint64_t*> fields[] = {
        {"index", &entry.index},   {"first_flow", &entry.first_flow},
        {"flow_count", &entry.flow_count}, {"flows", &entry.flows},
        {"quarantines", &entry.quarantines}, {"bytes", &entry.bytes}};
    for (std::size_t f = 0; f < std::size(fields); ++f) {
      if (!util::parse_number(t[f + 1], *fields[f].second)) {
        return manifest_error(line_no, std::string("bad ") + fields[f].first + " '" +
                                           std::string(t[f + 1]) + "'");
      }
    }
    if (!util::parse_number(t[7], entry.crc32c, 16)) {
      return manifest_error(line_no, "bad crc '" + std::string(t[7]) + "'");
    }
    if (entry.flow_count == 0) {
      return manifest_error(line_no, "chunk declares zero flows");
    }
    if (entry.flows + entry.quarantines != entry.flow_count) {
      return manifest_error(line_no, "flows + quarantines != flow_count");
    }
    entries.emplace_back(entry, line_no);
  }
  // Stable, so of two entries sharing an index the later line comes second.
  std::stable_sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return by_index(a.first, b.first);
  });
  const auto dup = std::adjacent_find(entries.begin(), entries.end(),
                                      [](const auto& a, const auto& b) {
                                        return a.first.index == b.first.index;
                                      });
  if (dup != entries.end()) {
    return manifest_error(std::next(dup)->second, "duplicate chunk index " +
                                                      std::to_string(dup->first.index));
  }
  if (entries.size() != declared_chunks) {
    return util::Status::invalid_argument(
        "manifest declared " + std::to_string(declared_chunks) +
        " chunks but holds " + std::to_string(entries.size()));
  }
  manifest.chunks.reserve(entries.size());
  for (const auto& [entry, line_no] : entries) manifest.chunks.push_back(entry);
  return manifest;
}

std::uint64_t manifest_digest(std::string_view canonical_text) {
  // FNV-1a, 64-bit: deterministic across platforms, no dependencies.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : canonical_text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

util::Status save_campaign_manifest(util::Fs& fs, const std::string& path,
                                    const CampaignManifest& manifest) {
  return util::write_file_atomic(fs, path, manifest.to_text());
}

util::StatusOr<CampaignManifest> load_campaign_manifest(const std::string& path) {
  auto text = util::read_text_file(path);
  if (text.status().code() == util::StatusCode::kNotFound) {
    return util::Status::not_found("cannot open manifest: " + path);
  }
  if (!text.is_ok()) return text.status();
  return CampaignManifest::parse(text.value());
}

}  // namespace hsr::workload
