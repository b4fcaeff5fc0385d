# tests/CheckRaceCliJson.cmake - Parse race_cli --json output for real.
#
# Part of rapidpp (PLDI'17 WCP reproduction).
#
# Runs `race_cli --json --hb --wcp` (built-in workload) and *parses* the
# output with CMake's string(JSON ...) — a structural check, not a regex:
# the schema race_cli promises (tool/mode/status/events/lanes with
# detector/races/instances/seconds fields) must actually be valid JSON
# with the right shapes and values. Invoked by the race_cli_json_parses
# ctest; requires -DRACE_CLI=<path-to-binary>.

if(NOT RACE_CLI)
  message(FATAL_ERROR "pass -DRACE_CLI=<path to race_cli>")
endif()

execute_process(
  COMMAND ${RACE_CLI} --json --hb --wcp
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "race_cli --json exited ${RC}: ${ERR}")
endif()

# Any parse failure in here is a FATAL_ERROR with ERROR_VARIABLE set.
string(JSON TOOL ERROR_VARIABLE JERR GET "${OUT}" tool)
if(JERR)
  message(FATAL_ERROR "not valid JSON (${JERR}): ${OUT}")
endif()
if(NOT TOOL STREQUAL "race_cli")
  message(FATAL_ERROR "tool = '${TOOL}', want 'race_cli'")
endif()

string(JSON STATUS GET "${OUT}" status)
if(NOT STATUS STREQUAL "ok")
  message(FATAL_ERROR "status = '${STATUS}', want 'ok'")
endif()

string(JSON MODE GET "${OUT}" mode)
if(NOT MODE STREQUAL "sequential")
  message(FATAL_ERROR "mode = '${MODE}', want 'sequential'")
endif()

string(JSON EVENTS GET "${OUT}" events)
if(NOT EVENTS GREATER 0)
  message(FATAL_ERROR "events = ${EVENTS}, want > 0")
endif()

string(JSON NLANES LENGTH "${OUT}" lanes)
if(NOT NLANES EQUAL 2)
  message(FATAL_ERROR "lanes length = ${NLANES}, want 2 (HB + WCP)")
endif()

set(WANT_DETECTORS "HB;WCP")
math(EXPR LAST "${NLANES} - 1")
foreach(I RANGE ${LAST})
  string(JSON DET GET "${OUT}" lanes ${I} detector)
  list(GET WANT_DETECTORS ${I} WANT)
  if(NOT DET STREQUAL "${WANT}")
    message(FATAL_ERROR "lane ${I} detector = '${DET}', want '${WANT}'")
  endif()
  string(JSON LSTATUS GET "${OUT}" lanes ${I} status)
  if(NOT LSTATUS STREQUAL "ok")
    message(FATAL_ERROR "lane ${I} status = '${LSTATUS}'")
  endif()
  # The built-in mergesort workload races; a zero here means the lane ran
  # but the report was dropped somewhere between session and JSON.
  string(JSON RACES GET "${OUT}" lanes ${I} races)
  if(NOT RACES GREATER 0)
    message(FATAL_ERROR "lane ${I} races = ${RACES}, want > 0")
  endif()
  string(JSON CONSUMED GET "${OUT}" lanes ${I} events_consumed)
  if(NOT CONSUMED EQUAL ${EVENTS})
    message(FATAL_ERROR
            "lane ${I} consumed ${CONSUMED} of ${EVENTS} events")
  endif()
  # Every lane carries a telemetry object (may be empty for detectors
  # that report nothing in batch mode, but the key must exist).
  string(JSON TELTYPE ERROR_VARIABLE TELERR TYPE "${OUT}" lanes ${I}
         telemetry)
  if(TELERR OR NOT TELTYPE STREQUAL "OBJECT")
    message(FATAL_ERROR "lane ${I} telemetry missing or not an object "
            "(${TELERR}/${TELTYPE})")
  endif()
  # The per-lane restarts key left the schema (detectors grow in place and
  # never restart); its reappearance means a schema regression.
  string(JSON IGNORED ERROR_VARIABLE RERR GET "${OUT}" lanes ${I} restarts)
  if(NOT RERR)
    message(FATAL_ERROR "lane ${I} still emits the deprecated restarts key")
  endif()
endforeach()

# The WCP lane's queue telemetry (paper Table 1 column 11) must survive
# the detector's teardown into the JSON.
string(JSON WCPQ ERROR_VARIABLE WERR GET "${OUT}" lanes 1 telemetry
       wcp.queue_peak_abstract)
if(WERR)
  message(FATAL_ERROR "WCP lane telemetry lacks wcp.queue_peak_abstract: "
          "${WERR}")
endif()
if(NOT WCPQ GREATER 0)
  message(FATAL_ERROR "wcp.queue_peak_abstract = ${WCPQ}, want > 0")
endif()

# The one-cycle compat note for the retired restarts key is gone too.
string(JSON IGNORED ERROR_VARIABLE CERR GET "${OUT}" compat)
if(NOT CERR)
  message(FATAL_ERROR "race_cli still emits the retired compat note")
endif()

message(STATUS "race_cli --json: valid (${EVENTS} events, ${NLANES} lanes)")
