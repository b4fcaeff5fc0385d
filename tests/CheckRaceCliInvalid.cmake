# tests/CheckRaceCliInvalid.cmake - One validation contract for race_cli.
#
# Part of rapidpp (PLDI'17 WCP reproduction).
#
# Writes a text trace that breaks lock semantics at event 1 and runs
# race_cli on it. The session validates before it publishes, so the run
# must exit 1 and print the first ValidationError, once. Invoked by the
# race_cli_invalid_trace ctest; requires -DRACE_CLI=<path>.

if(NOT RACE_CLI)
  message(FATAL_ERROR "pass -DRACE_CLI=<path to race_cli>")
endif()

set(TRACE "${CMAKE_CURRENT_BINARY_DIR}/invalid_case.txt")
file(WRITE ${TRACE}
"T0|acq(l)|L1
T1|acq(l)|L2
T0|w(x)|L3
")

execute_process(
  COMMAND ${RACE_CLI} ${TRACE} --hb
  OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
file(REMOVE ${TRACE})
if(NOT RC EQUAL 1)
  message(FATAL_ERROR "exit ${RC}, want 1: ${ERR}")
endif()
set(WANT "^error: validation-error: event 1: lock semantics violated[^\n]*\n$")
if(NOT ERR MATCHES "${WANT}")
  message(FATAL_ERROR "want one validation-error line, got: ${ERR}")
endif()
message(STATUS "race_cli invalid trace: exit 1, one validation-error line")
