# tests/CheckRaceCliInvalid.cmake - One validation contract for race_cli.
#
# Part of rapidpp (PLDI'17 WCP reproduction).
#
# Writes a text trace that breaks lock semantics at event 1 and runs
# race_cli on it with and without --stream. Both paths validate inside
# the analysis session, so both must exit 1 and print the same first
# ValidationError, once. Invoked by the race_cli_invalid_trace ctest;
# requires -DRACE_CLI=<path>.

if(NOT RACE_CLI)
  message(FATAL_ERROR "pass -DRACE_CLI=<path to race_cli>")
endif()

set(TRACE "${CMAKE_CURRENT_BINARY_DIR}/invalid_case.txt")
file(WRITE ${TRACE}
"T0|acq(l)|L1
T1|acq(l)|L2
T0|w(x)|L3
")

foreach(MODE loaded streamed)
  if(MODE STREQUAL "streamed")
    set(FLAGS --stream)
  else()
    set(FLAGS)
  endif()
  execute_process(
    COMMAND ${RACE_CLI} ${TRACE} --hb ${FLAGS}
    OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR_${MODE} RESULT_VARIABLE RC)
  if(NOT RC EQUAL 1)
    message(FATAL_ERROR "${MODE}: exit ${RC}, want 1: ${ERR_${MODE}}")
  endif()
endforeach()
file(REMOVE ${TRACE})

if(NOT ERR_loaded STREQUAL ERR_streamed)
  message(FATAL_ERROR "stderr differs:\nloaded:   ${ERR_loaded}"
                      "streamed: ${ERR_streamed}")
endif()
set(WANT "^error: validation-error: event 1: lock semantics violated[^\n]*\n$")
if(NOT ERR_loaded MATCHES "${WANT}")
  message(FATAL_ERROR "want one validation-error line, got: ${ERR_loaded}")
endif()
message(STATUS "race_cli invalid trace: exit 1, same message both ways")
