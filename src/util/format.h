// Number spellings the text formats share, so their bytes depend only on the
// values.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>

namespace hsr::util {

// Shortest round-trip text for a double: the fewest decimal digits that
// std::from_chars parses back to the same bits (std::to_chars' default
// format). The stats digest and the resume digest spell doubles this way.
inline std::string format_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// The low `digits` hex digits of `v`, lowercase and zero-padded: the
// manifest's spec digest (16) and CRCs (8).
inline std::string format_hex(std::uint64_t v, int digits) {
  std::string out(static_cast<std::size_t>(digits), '0');
  for (int i = digits - 1; i >= 0; --i, v >>= 4) {
    out[static_cast<std::size_t>(i)] = "0123456789abcdef"[v & 0xF];
  }
  return out;
}

}  // namespace hsr::util
