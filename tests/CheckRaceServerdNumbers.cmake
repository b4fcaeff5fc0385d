# tests/CheckRaceServerdNumbers.cmake - race_serverd rejects bad numbers.
#
# Part of rapidpp (PLDI'17 WCP reproduction).
#
# Every numeric race_serverd flag takes a complete unsigned decimal. Runs
# each malformed form under --dry-run (which opens no socket and starts no
# pool) and requires exit 1 with "error: <flag> needs an unsigned
# integer"; then requires the well-formed spellings to pass. Invoked by
# the race_serverd_rejects_bad_numbers ctest; requires
# -DRACE_SERVERD=<path>.

if(NOT RACE_SERVERD)
  message(FATAL_ERROR "pass -DRACE_SERVERD=<path to race_serverd>")
endif()

# Each entry is "<flag>=<value>" (split on the first '=').
set(BAD
  "--budget-lag=10k"
  "--budget-lag=-1"
  "--budget-lag=+5"
  "--budget-lag= 5"
  "--budget-lag="
  "--budget-lag=18446744073709551616"
  "--stream-batch=abc"
  "--stream-batch=0"
  "--ingest-threads=x"
  "--ingest-threads=4294967296"
  "--max-events=1e6"
  "--max-sessions=0x10"
  "--resume-grace-ms=5s"
  "--idle-timeout-ms=1.5"
  "--roster-max=ten"
  "--retry-after-ms=4294967296"
  "--debug-slow-us=9z")
foreach(CASE ${BAD})
  string(FIND "${CASE}" "=" EQ)
  string(SUBSTRING "${CASE}" 0 ${EQ} FLAG)
  math(EXPR VSTART "${EQ} + 1")
  string(SUBSTRING "${CASE}" ${VSTART} -1 VALUE)
  execute_process(
    COMMAND ${RACE_SERVERD} --dry-run ${FLAG} "${VALUE}"
    OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
  if(NOT RC EQUAL 1)
    message(FATAL_ERROR
            "${FLAG} '${VALUE}': exit ${RC}, want 1 (stdout: ${OUT})")
  endif()
  if(NOT ERR MATCHES "error: ${FLAG} needs an unsigned integer")
    message(FATAL_ERROR "${FLAG} '${VALUE}': stderr '${ERR}'")
  endif()
endforeach()

# The well-formed spellings still parse, and the value is the one given.
execute_process(
  COMMAND ${RACE_SERVERD} --dry-run --budget-lag 10 --stream-batch 1
          --ingest-threads 0 --max-events 0 --retry-after-ms 4294967295
  OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "well-formed flags rejected (exit ${RC}): ${ERR}")
endif()
if(NOT OUT MATCHES "budget-lag=10\n")
  message(FATAL_ERROR "well-formed flags: unexpected output '${OUT}'")
endif()
list(LENGTH BAD NBAD)
message(STATUS "race_serverd numeric flags: ${NBAD} malformed forms "
        "rejected")
