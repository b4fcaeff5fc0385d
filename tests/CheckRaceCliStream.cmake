# tests/CheckRaceCliStream.cmake - Pin --stream composed with --window.
#
# Part of rapidpp (PLDI'17 WCP reproduction).
#
# Writes a small racy text trace, then runs race_cli over it with
# --stream combined with --window, parsing the --json output with
# string(JSON ...): the run must succeed, report the windowed mode with
# streamed=true, and the lane must lose the race, because the window cuts
# the racing accesses apart (the baseline's defining handicap). Invoked by
# the race_cli_stream_window ctest; requires -DRACE_CLI=<path>.

if(NOT RACE_CLI)
  message(FATAL_ERROR "pass -DRACE_CLI=<path to race_cli>")
endif()

# Two unsynchronized writes to x from different threads (a race), plus a
# lock-protected pair on y (no race). 8 events total.
set(TRACE "${CMAKE_CURRENT_BINARY_DIR}/stream_case_window.txt")
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

# Window of 1 event: every fragment holds a single access, so even the
# x race disappears — windowed semantics, streamed.
execute_process(
  COMMAND ${RACE_CLI} ${TRACE} --stream --window 1 --hb --json
  OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
set(WANT_MODE "windowed")
set(WANT_RACES 0)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "race_cli exited ${RC}: ${ERR}")
endif()

string(JSON MODE ERROR_VARIABLE JERR GET "${OUT}" mode)
if(JERR)
  message(FATAL_ERROR "not valid JSON (${JERR}): ${OUT}")
endif()
if(NOT MODE STREQUAL WANT_MODE)
  message(FATAL_ERROR "mode = '${MODE}', want '${WANT_MODE}'")
endif()
string(JSON STREAMED GET "${OUT}" streamed)
if(NOT STREAMED STREQUAL "ON")
  message(FATAL_ERROR "streamed = '${STREAMED}', want true")
endif()
string(JSON STATUS GET "${OUT}" status)
if(NOT STATUS STREQUAL "ok")
  message(FATAL_ERROR "status = '${STATUS}', want 'ok'")
endif()
string(JSON EVENTS GET "${OUT}" events)
if(NOT EVENTS EQUAL 8)
  message(FATAL_ERROR "events = ${EVENTS}, want 8")
endif()
string(JSON RACES GET "${OUT}" lanes 0 races)
if(NOT RACES EQUAL WANT_RACES)
  message(FATAL_ERROR
          "HB lane races = ${RACES}, want ${WANT_RACES} (${WANT_MODE})")
endif()
string(JSON CONSUMED GET "${OUT}" lanes 0 events_consumed)
if(NOT CONSUMED EQUAL 8)
  message(FATAL_ERROR "events_consumed = ${CONSUMED}, want 8")
endif()
file(REMOVE ${TRACE})
message(STATUS "race_cli --stream --window: ok (${WANT_RACES} race(s))")
