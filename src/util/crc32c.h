// CRC-32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum used by the
// hsrtrace-b2 frame format and the campaign manifest chunk digests.
//
// On x86-64 CPUs with SSE4.2, crc32c() runs the `crc32` instruction; every
// other CPU gets the slicing-by-4 table code (crc32c_portable). The CPU is
// checked once at run time, and both paths return the same value for every
// input, so archived checksums never depend on the machine. Every corpus
// byte is checksummed at least three times (frame CRC, chunk-file CRC at
// commit, verify on merge or resume), and the table code alone ran at
// ~600 MB/s, about a tenth of a corpus re-analysis scan (DESIGN.md §6h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hsr::util {

// Extends a running CRC-32C with `size` bytes. Start a fresh checksum with
// `crc = 0`; the returned value is the finalized checksum (the customary
// init/final XOR is handled internally, so values compose as
// `crc32c(crc32c(0, a), b) == crc32c(0, ab)`).
std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t size);

// The slicing-by-4 table path crc32c() takes on CPUs without SSE4.2, with
// the same contract. Exposed as the reference the hardware path is tested
// against; production code calls crc32c().
std::uint32_t crc32c_portable(std::uint32_t crc, const void* data, std::size_t size);

inline std::uint32_t crc32c(std::string_view bytes) {
  return crc32c(0, bytes.data(), bytes.size());
}

}  // namespace hsr::util
