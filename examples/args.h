// Positional numeric arguments of the examples, parsed like the tools' flags
// (tools/numeric_flag.h): the whole argument must be a number in range, or
// the program stops with exit status 2 and a message naming the argument,
// instead of silently running a different experiment.
#pragma once

#include <cstdlib>

#include "numeric_flag.h"

namespace hsr::examples {

// argv[index] as a T in [lo, hi]; `fallback` when the argument is absent.
template <typename T>
T numeric_arg(int argc, char** argv, int index, const char* name, T fallback, T lo,
              T hi) {
  T value = fallback;
  if (index < argc && !tools::parse_flag(name, argv[index], lo, hi, value)) std::exit(2);
  return value;
}

}  // namespace hsr::examples
