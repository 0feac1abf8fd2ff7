# For each program, runs spidey-analyze three times over its files — cold
# and then warm from an emptied cache directory (the per-component
# reconstruct sweep over derived, then stored, components), and --whole
# (the standard analysis) — and fails unless all three print the same
# CHECKS: block, from "CHECKS:" through the "TOTAL CHECKS:" line. The warm
# run must serve every component from the cache.
#
#   cmake -DANALYZE=path/to/spidey-analyze -DEXAMPLES=examples
#         -DPROGRAMS=serve:list.ss:data.ss:main.ss,structs:lib.ss:main.ss
#         -DCACHE=scratch/cache/dir -P compare_checks.cmake

function(checks_block OutVar Paths)
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
  set(${OutVar}Output "${Out}" PARENT_SCOPE)
endfunction()

string(REPLACE "," ";" Programs "${PROGRAMS}")
foreach(Program IN LISTS Programs)
  string(REPLACE ":" ";" Files "${Program}")
  list(POP_FRONT Files Dir)
  set(Paths)
  foreach(F IN LISTS Files)
    list(APPEND Paths "${EXAMPLES}/${Dir}/${F}")
  endforeach()
  list(LENGTH Files NumFiles)

  file(REMOVE_RECURSE "${CACHE}")
  checks_block(Cold "${Paths}" --threads 1 --cache-dir "${CACHE}")
  checks_block(Warm "${Paths}" --threads 1 --cache-dir "${CACHE}")
  checks_block(Whole "${Paths}" --whole)
  file(REMOVE_RECURSE "${CACHE}")
  if(NOT WarmOutput MATCHES "components: ${NumFiles} \\(${NumFiles} from cache\\)")
    message(FATAL_ERROR "${Dir}: the warm run did not reuse every "
      "component:\n${WarmOutput}")
  endif()
  foreach(Run Cold Warm)
    if(NOT ${Run} STREQUAL Whole)
      message(FATAL_ERROR "${Dir}: CHECKS: blocks differ\n"
        "${Run} componential:\n${${Run}}\nwhole-program:\n${Whole}")
    endif()
  endforeach()
  message(STATUS "${Dir}: identical CHECKS: blocks\n${Whole}")
endforeach()
