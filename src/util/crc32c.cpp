#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define HSR_CRC32C_SSE42
#endif

namespace hsr::util {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 bit-reflected

constexpr std::array<std::array<std::uint32_t, 256>, 4> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 4> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
    t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
    t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
  }
  return t;
}

constexpr auto kTables = make_tables();

#ifdef HSR_CRC32C_SSE42
// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli CRC,
// eight little-endian bytes per step.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(std::uint32_t crc,
                                                              const void* data,
                                                              std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t state = ~crc;
  while (size >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    state = _mm_crc32_u64(state, word);
    p += 8;
    size -= 8;
  }
  auto tail = static_cast<std::uint32_t>(state);
  while (size-- > 0) tail = _mm_crc32_u8(tail, *p++);
  return ~tail;
}

bool cpu_has_sse42() {
  __builtin_cpu_init();  // the first checksum may run during static initialization
  return __builtin_cpu_supports("sse4.2") != 0;
}
#endif

}  // namespace

std::uint32_t crc32c_portable(std::uint32_t crc, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (size >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = kTables[3][crc & 0xFFu] ^ kTables[2][(crc >> 8) & 0xFFu] ^
          kTables[1][(crc >> 16) & 0xFFu] ^ kTables[0][crc >> 24];
    p += 4;
    size -= 4;
  }
  while (size-- > 0) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p++) & 0xFFu];
  }
  return ~crc;
}

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t size) {
#ifdef HSR_CRC32C_SSE42
  static const bool kHardware = cpu_has_sse42();
  if (kHardware) return crc32c_sse42(crc, data, size);
#endif
  return crc32c_portable(crc, data, size);
}

}  // namespace hsr::util
