# ctest helper: runs a command and passes only when it exits non-zero AND
# its output contains EXPECT, i.e. bad input was refused by name rather than
# silently accepted or crashed on.
#
#   cmake -DEXPECT=<text> -P expect_rejected.cmake -- <program> [args...]
#
# Set environment knobs with `cmake -E env NAME=VALUE <program>` as the
# program.
set(cmd "")
set(after_separator OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator ON)
  endif()
endforeach()
if(cmd STREQUAL "" OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXPECT=<text> -P expect_rejected.cmake -- <program> [args...]")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "exited 0; expected a rejection naming \"${EXPECT}\"\n${out}${err}")
endif()
string(FIND "${out}${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "exit status ${rc}, but the output does not name \"${EXPECT}\"\n${out}${err}")
endif()
# Echo the program's output, so a test can also refuse output that must not
# appear before the rejection (FAIL_REGULAR_EXPRESSION).
message("${out}${err}")
