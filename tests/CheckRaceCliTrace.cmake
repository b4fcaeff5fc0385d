# tests/CheckRaceCliTrace.cmake - Validate --trace-out timeline output.
#
# Part of rapidpp (PLDI'17 WCP reproduction).
#
# Writes a small racy text trace, streams it through race_cli with
# --window 2 and --trace-out, then parses the emitted Chrome/Perfetto
# trace_event JSON with string(JSON ...): the file must be valid JSON
# with a traceEvents array, thread_name metadata for the ingest track and
# each lane track, at least one "check:w<K>" window span on every lane
# track, and sane (non-negative) ts/dur on every span. Invoked by the
# race_cli_trace_out ctest; requires -DRACE_CLI=<path-to-binary>.

cmake_minimum_required(VERSION 3.19) # string(JSON), IN_LIST semantics

if(NOT RACE_CLI)
  message(FATAL_ERROR "pass -DRACE_CLI=<path to race_cli>")
endif()

# Two unsynchronized writes to x (a race), plus a lock-protected pair on
# y — enough events for four 2-event windows per lane.
set(TRACE "${CMAKE_CURRENT_BINARY_DIR}/trace_out_case.txt")
set(TIMELINE "${CMAKE_CURRENT_BINARY_DIR}/trace_out_case.timeline.json")
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
  COMMAND ${RACE_CLI} ${TRACE} --stream --window 2 --hb --wcp
          --trace-out ${TIMELINE} --json
  OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "race_cli exited ${RC}: ${ERR}")
endif()
if(NOT EXISTS ${TIMELINE})
  message(FATAL_ERROR "--trace-out did not write ${TIMELINE}")
endif()
file(READ ${TIMELINE} TL)

string(JSON UNIT ERROR_VARIABLE JERR GET "${TL}" displayTimeUnit)
if(JERR)
  message(FATAL_ERROR "timeline is not valid JSON (${JERR})")
endif()
if(NOT UNIT STREQUAL "ms")
  message(FATAL_ERROR "displayTimeUnit = '${UNIT}', want 'ms'")
endif()

string(JSON NEV LENGTH "${TL}" traceEvents)
if(NOT NEV GREATER 0)
  message(FATAL_ERROR "traceEvents is empty")
endif()

# Pass 1 — metadata: map track names to tids. Pass 2 — spans: count
# "check:w<K>" window spans per tid and range-check every span's ts/dur.
set(TRACK_NAMES "")
math(EXPR LAST "${NEV} - 1")
foreach(I RANGE ${LAST})
  string(JSON PH GET "${TL}" traceEvents ${I} ph)
  if(PH STREQUAL "M")
    string(JSON TNAME GET "${TL}" traceEvents ${I} args name)
    string(JSON TID GET "${TL}" traceEvents ${I} tid)
    list(APPEND TRACK_NAMES "${TNAME}")
    set("TID_${TNAME}" ${TID})
    set("SPANS_${TID}" 0)
  endif()
endforeach()
foreach(I RANGE ${LAST})
  string(JSON PH GET "${TL}" traceEvents ${I} ph)
  if(PH STREQUAL "X")
    string(JSON TID GET "${TL}" traceEvents ${I} tid)
    string(JSON TS GET "${TL}" traceEvents ${I} ts)
    string(JSON DUR GET "${TL}" traceEvents ${I} dur)
    string(JSON SNAME GET "${TL}" traceEvents ${I} name)
    if(TS LESS 0 OR DUR LESS 0)
      message(FATAL_ERROR "span ${I}: ts=${TS} dur=${DUR}, want >= 0")
    endif()
    if(SNAME MATCHES "^check:w[0-9]+$")
      math(EXPR N "${SPANS_${TID}} + 1")
      set("SPANS_${TID}" ${N})
    endif()
  endif()
endforeach()

# The streaming stages must all have tracks: ingest and one per lane.
foreach(WANT "ingest" "lane:HB" "lane:WCP")
  if(NOT WANT IN_LIST TRACK_NAMES)
    message(FATAL_ERROR "no '${WANT}' track (tracks: ${TRACK_NAMES})")
  endif()
endforeach()

# Every lane checks its windows on its own track.
foreach(LANE "lane:HB" "lane:WCP")
  set(TID "${TID_${LANE}}")
  if(NOT SPANS_${TID} GREATER 0)
    message(FATAL_ERROR "'${LANE}' track has no check:w* spans")
  endif()
endforeach()

file(REMOVE ${TRACE} ${TIMELINE})
list(LENGTH TRACK_NAMES NTRACKS)
message(STATUS "race_cli --trace-out: valid (${NEV} events, ${NTRACKS} "
        "tracks)")
