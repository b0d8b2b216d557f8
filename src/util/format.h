// Shortest round-trip text for a double: the fewest decimal digits that
// std::from_chars parses back to the same bits (std::to_chars' default
// format). The stats digest, the fault-plan P line and the resume digest all
// spell doubles this way, so their bytes depend only on the values.
#pragma once

#include <charconv>
#include <string>

namespace hsr::util {

inline std::string format_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace hsr::util
