# tests/CheckRaceCliStdin.cmake - Pin `race_cli -` (stdin traces).
#
# Part of rapidpp (PLDI'17 WCP reproduction).
#
# Writes a small racy text trace, pipes it into `race_cli -` via
# INPUT_FILE, and asserts the streamed run reports the race — the exact
# path a FIFO redirection (`race_cli <(...)`) exercises. Invoked by the
# race_cli_stdin_stream ctest; requires -DRACE_CLI=<path>.

if(NOT RACE_CLI)
  message(FATAL_ERROR "pass -DRACE_CLI=<path to race_cli>")
endif()

set(TRACE "${CMAKE_CURRENT_BINARY_DIR}/stdin_case.txt")
file(WRITE ${TRACE}
"T0|w(x)|L1
T1|w(x)|L2
T0|acq(l)|L3
T0|w(y)|L4
T0|rel(l)|L5
T1|acq(l)|L6
T1|w(y)|L7
T1|rel(l)|L8
")

execute_process(
  COMMAND ${RACE_CLI} - --hb --json
  INPUT_FILE ${TRACE}
  OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "race_cli - exited ${RC}: ${ERR}")
endif()
string(JSON STATUS ERROR_VARIABLE JERR GET "${OUT}" status)
if(JERR)
  message(FATAL_ERROR "not valid JSON (${JERR}): ${OUT}")
endif()
if(NOT STATUS STREQUAL "ok")
  message(FATAL_ERROR "status = '${STATUS}', want 'ok'")
endif()
string(JSON EVENTS GET "${OUT}" events)
if(NOT EVENTS EQUAL 8)
  message(FATAL_ERROR "events = ${EVENTS}, want 8")
endif()
string(JSON RACES GET "${OUT}" lanes 0 races)
if(NOT RACES EQUAL 1)
  message(FATAL_ERROR "HB lane races = ${RACES}, want 1")
endif()

file(REMOVE ${TRACE})
message(STATUS "race_cli -: ok (1 race)")
