// Invariant CHECK macros: HSR_CHECK always, HSR_DCHECK in debug and
// sanitizer builds.
#pragma once

#include <cstdlib>
#include <iostream>

// Invariant check: aborts with a message when violated. Used for programming
// errors (broken invariants), not for recoverable conditions.
#define HSR_CHECK(cond)                                                      \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::cerr << "CHECK failed: " #cond " at " << __FILE__ << ":"          \
                << __LINE__ << '\n';                                         \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

#define HSR_CHECK_MSG(cond, msg)                                             \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::cerr << "CHECK failed: " #cond " at " << __FILE__ << ":"          \
                << __LINE__ << ": " << msg << '\n';                          \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

// Debug-only invariant check for hot paths: active in builds without NDEBUG
// (Debug) and in any build compiled with -DHSR_FORCE_DCHECKS=1 (sanitizer
// builds force it on; see cmake/Sanitizers.cmake). Compiles to nothing
// otherwise, so per-event invariants cost nothing in release runs.
#if !defined(NDEBUG) || defined(HSR_FORCE_DCHECKS)
#define HSR_DCHECKS_ENABLED 1
#define HSR_DCHECK(cond) HSR_CHECK(cond)
#define HSR_DCHECK_MSG(cond, msg) HSR_CHECK_MSG(cond, msg)
#else
#define HSR_DCHECKS_ENABLED 0
// The condition is never evaluated, but stays visible to the compiler so
// release builds don't warn about variables used only in invariants.
#define HSR_DCHECK(cond)         \
  do {                           \
    if (false) { (void)(cond); } \
  } while (0)
#define HSR_DCHECK_MSG(cond, msg)             \
  do {                                        \
    if (false) { (void)(cond); (void)(msg); } \
  } while (0)
#endif
