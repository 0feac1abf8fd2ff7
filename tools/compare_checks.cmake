# Runs spidey-analyze twice over the same files — componential (the
# per-component reconstruct sweep) and --whole (the standard analysis) —
# and fails unless both print the same CHECKS: block, from "CHECKS:" through
# the "TOTAL CHECKS:" line.
#
#   cmake -DANALYZE=path/to/spidey-analyze -DDIR=examples/serve
#         -DFILES=list.ss,data.ss,main.ss -P compare_checks.cmake

string(REPLACE "," ";" Files "${FILES}")
set(Paths)
foreach(F IN LISTS Files)
  list(APPEND Paths "${DIR}/${F}")
endforeach()

function(checks_block OutVar)
  execute_process(COMMAND "${ANALYZE}" ${ARGN} ${Paths}
    OUTPUT_VARIABLE Out ERROR_VARIABLE Err RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "spidey-analyze ${ARGN} exited ${Rc}:\n${Out}${Err}")
  endif()
  string(FIND "${Out}" "CHECKS:\n" Begin)
  string(FIND "${Out}" "TOTAL CHECKS:" Total)
  if(Begin EQUAL -1 OR Total EQUAL -1)
    message(FATAL_ERROR "spidey-analyze ${ARGN}: no CHECKS: block in\n${Out}")
  endif()
  string(SUBSTRING "${Out}" ${Total} -1 Tail)
  string(FIND "${Tail}" "\n" TailEnd)
  math(EXPR Length "${Total} + ${TailEnd} - ${Begin}")
  string(SUBSTRING "${Out}" ${Begin} ${Length} Block)
  set(${OutVar} "${Block}" PARENT_SCOPE)
endfunction()

checks_block(Componential --threads 1)
checks_block(Whole --whole)
if(NOT Componential STREQUAL Whole)
  message(FATAL_ERROR "CHECKS: blocks differ\n"
    "componential:\n${Componential}\nwhole-program:\n${Whole}")
endif()
message(STATUS "identical CHECKS: blocks\n${Componential}")
