# Fails when a test binary lists its tests differently from one run to the
# next. gtest_discover_tests names a value-parameterized case after its
# printed parameter; a parameter type without a PrintTo prints as its raw
# bytes, and the pointers among them move with every run (ASLR) and every
# build, so test lists from two builds stop matching name by name. A host
# without ASLR lists such names identically and cannot catch them.
#
#   cmake -DBINARIES=path/to/a_test,path/to/b_test -P check_test_names.cmake

cmake_minimum_required(VERSION 3.16)

string(REPLACE "," ";" Binaries "${BINARIES}")
list(LENGTH Binaries NumBinaries)
if(NumBinaries EQUAL 0)
  message(FATAL_ERROR "no test binaries given")
endif()

set(NumUnstable 0)
foreach(Bin IN LISTS Binaries)
  foreach(Run A B)
    execute_process(COMMAND "${Bin}" --gtest_list_tests
      OUTPUT_VARIABLE List${Run} ERROR_VARIABLE Err RESULT_VARIABLE Rc)
    if(NOT Rc EQUAL 0)
      message(FATAL_ERROR "${Bin} --gtest_list_tests exited ${Rc}:\n${Err}")
    endif()
  endforeach()
  if(NOT ListA STREQUAL ListB)
    math(EXPR NumUnstable "${NumUnstable} + 1")
    string(REGEX MATCHALL "[^\n]+" LinesA "${ListA}")
    string(REGEX MATCHALL "[^\n]+" LinesB "${ListB}")
    foreach(Line IN LISTS LinesA)
      if(NOT Line IN_LIST LinesB)
        message(SEND_ERROR "${Bin}: listed differently on a second run:\n"
          "${Line}")
        break()
      endif()
    endforeach()
  endif()
endforeach()
if(NumUnstable GREATER 0)
  message(FATAL_ERROR "${NumUnstable} test binaries list unstable names; "
    "give the parameter type a PrintTo or a name generator")
endif()
message(STATUS "${NumBinaries} test binaries list the same names on every run")
