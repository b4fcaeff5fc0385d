# tests/CheckRaceCliMissing.cmake - race_cli on a file it cannot open.
#
# Part of rapidpp (PLDI'17 WCP reproduction).
#
# Nothing is ingested, so there is nothing to report: the run must exit 1
# with the io-error on stderr and print no findings block or race table.
# With --json it still prints its one object, whose status is the error.
# Invoked by the race_cli_missing_file ctest; requires -DRACE_CLI=<path>.

if(NOT RACE_CLI)
  message(FATAL_ERROR "pass -DRACE_CLI=<path to race_cli>")
endif()

set(TRACE "${CMAKE_CURRENT_BINARY_DIR}/no_such_dir/missing_trace.txt")
execute_process(
  COMMAND ${RACE_CLI} ${TRACE} --hb --wcp
  OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 1)
  message(FATAL_ERROR "exit ${RC}, want 1: ${ERR}")
endif()
if(NOT ERR MATCHES "^error: io-error: cannot open [^\n]*\n$")
  message(FATAL_ERROR "want one io-error line, got: ${ERR}")
endif()
if(OUT MATCHES "findings:" OR OUT MATCHES "analysis")
  message(FATAL_ERROR "a file that cannot be opened printed a report:\n${OUT}")
endif()

# --json keeps its contract: one object on stdout, its status the error.
execute_process(
  COMMAND ${RACE_CLI} ${TRACE} --hb --json
  OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 1)
  message(FATAL_ERROR "--json: exit ${RC}, want 1: ${ERR}")
endif()
if(NOT OUT MATCHES "^{.*io-error: cannot open.*}")
  message(FATAL_ERROR "--json: want an object carrying the io-error, got: ${OUT}")
endif()
message(STATUS "race_cli missing file: exit 1, one io-error line, no report")
