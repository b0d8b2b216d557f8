#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace hsr::util {
namespace {

TEST(Crc32cTest, KnownAnswer) {
  // The CRC-32C check value (RFC 3720, Appendix B.4).
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c_portable(0, "123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0u);
}

TEST(Crc32cTest, RunningChecksumsCompose) {
  const std::string ab = "hsrtrace-b2 frames carry a CRC-32C over type, seq, size and payload";
  for (std::size_t split = 0; split <= ab.size(); ++split) {
    const std::string_view a(ab.data(), split);
    const std::string_view b(ab.data() + split, ab.size() - split);
    EXPECT_EQ(crc32c(crc32c(0, a.data(), a.size()), b.data(), b.size()), crc32c(ab))
        << "split " << split;
  }
}

// crc32c() takes the CPU's `crc32` instruction where it has one, so on x86
// CI the table path runs only here: every length up to 4096 bytes at every
// start offset mod 8, from a running checksum, must give the table's value.
TEST(Crc32cTest, DispatchedPathMatchesTheTablePath) {
  constexpr std::size_t kMaxLength = 4096;
  std::vector<unsigned char> bytes(kMaxLength + 8);
  std::uint64_t state = 2016;
  for (auto& b : bytes) {
    state = splitmix64(state);
    b = static_cast<unsigned char>(state);
  }
  std::size_t mismatches = 0;
  std::string first;
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      state = splitmix64(state);
      const auto running = static_cast<std::uint32_t>(state);
      const unsigned char* data = bytes.data() + offset;
      if (crc32c(running, data, length) != crc32c_portable(running, data, length)) {
        if (mismatches++ == 0) {
          first = "offset " + std::to_string(offset) + " length " + std::to_string(length);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch at " << first;
}

}  // namespace
}  // namespace hsr::util
