// Whole-argument parsing of the command-line tools' numeric flags: the
// entire text must pass util::parse_number — no sign, blanks, "inf", "nan"
// or trailing characters — and land in [lo, hi], so nothing wraps on a
// narrowing cast or overflows a Duration. A refused value is named, with
// its flag and the accepted range, on stderr.
#pragma once

#include <cstdint>
#include <iostream>

#include "util/text.h"

namespace hsr::tools {

// Flag ranges: counts of flows or senders are `unsigned`, seeds take any
// u64, and a time in seconds must fit util::Duration's int64 nanoseconds
// (1 ns is its resolution, so a shorter positive duration would truncate to
// zero).
inline constexpr unsigned kMaxFlagCount = 0xFFFFFFFFu;
inline constexpr std::uint64_t kMaxFlagSeed = ~std::uint64_t{0};
inline constexpr double kMinFlagSeconds = 1e-9;
inline constexpr double kMaxFlagSeconds = 9.2e9;

template <typename T>
bool parse_flag(const char* flag, const char* text, T lo, T hi, T& out) {
  T value{};
  // NaN fails both bound comparisons.
  if (util::parse_number(text, value) && value >= lo && value <= hi) {
    out = value;
    return true;
  }
  std::cerr << "bad " << flag << " '" << text << "' (want a number in [" << lo << ", "
            << hi << "])\n";
  return false;
}

}  // namespace hsr::tools
