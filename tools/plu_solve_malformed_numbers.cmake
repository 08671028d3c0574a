# Runs plu_solve once per malformed number and fails unless every run exits
# with status 2 (the usage error).  An uncaught exception (abort), a crash or
# a value that is silently accepted all end with another status.
#
#   cmake -DPLU_SOLVE=<path to plu_solve> -P plu_solve_malformed_numbers.cmake
#
# Each case is one flag and its value, separated by '|'.  No case asks for a
# thread count that would start threads, and no --generate case builds a
# matrix.
set(cases
  "--threads|x"
  "--threads|4x"
  "--threads|0"
  "--threads|-3"
  "--threads|2.5"
  "--threads|99999999999"
  "--simulate|99999999999"
  "--simulate|0"
  "--simulate|-1"
  "--simulate|2abc"
  "--pivot-threshold|0.5abc"
  "--pivot-threshold|abc"
  "--pivot-threshold|0"
  "--pivot-threshold|-0.5"
  "--pivot-threshold|1.5"
  "--pivot-threshold|nan"
  "--pivot-threshold|1e999"
  "--generate|grid2d:4abc"
  "--generate|grid2d:-3"
  "--generate|grid2d:0"
)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" args "${case}")
  execute_process(COMMAND "${PLU_SOLVE}" --generate grid2d:4 ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR "plu_solve ${case}: exit status '${rc}', want 2")
  endif()
endforeach()
