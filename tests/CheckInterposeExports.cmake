# tests/CheckInterposeExports.cmake - Pin librace_interpose.so's exports.
#
# Part of rapidpp (PLDI'17 WCP reproduction).
#
# A preloaded shared object shares one symbol namespace with the program
# it is injected into, so it must export exactly the calls it interposes:
# the strong dynamic symbols (`nm -D --defined-only`) must be the pthread
# entry points plus race_annotate_access, and no rapid:: symbol (the wire
# client and codec it links, or their inline helpers) may be exported at
# all, not even weak. Invoked by the race_interpose_exports ctest;
# requires -DNM=<nm> -DLIB=<path to librace_interpose.so>.

if(NOT NM OR NOT LIB)
  message(FATAL_ERROR "pass -DNM=<nm> -DLIB=<librace_interpose.so>")
endif()

execute_process(
  COMMAND ${NM} -D --defined-only -C ${LIB}
  OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "nm failed (${RC}): ${ERR}")
endif()

set(WANT
    pthread_cond_timedwait pthread_cond_wait pthread_create pthread_join
    pthread_mutex_lock pthread_mutex_timedlock pthread_mutex_trylock
    pthread_mutex_unlock race_annotate_access)

set(STRONG "")
set(LEAKED "")
string(REPLACE "\n" ";" LINES "${OUT}")
foreach(LINE IN LISTS LINES)
  # "<address> <type> <name>"; uppercase T/D/B/R are strong definitions.
  if(LINE MATCHES "^[0-9a-fA-F]+ ([A-Za-z]) (.*)$")
    set(TYPE "${CMAKE_MATCH_1}")
    set(NAME "${CMAKE_MATCH_2}")
    if(TYPE MATCHES "^[TDBR]$")
      list(APPEND STRONG "${NAME}")
    endif()
    if(NAME MATCHES "rapid::")
      list(APPEND LEAKED "${NAME}")
    endif()
  endif()
endforeach()

list(SORT STRONG)
if(NOT STRONG STREQUAL WANT)
  message(FATAL_ERROR "strong exports differ\n  want: ${WANT}\n  got:  ${STRONG}")
endif()
if(LEAKED)
  message(FATAL_ERROR "rapid:: symbols exported: ${LEAKED}")
endif()
message(STATUS "exports ok: ${STRONG}")
