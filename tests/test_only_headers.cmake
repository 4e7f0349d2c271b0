# The `ctest -L lint` check for code only tests reach, run via
# `cmake -P`.
#
# Every header under src/ must be #included by some file under src/,
# tools/, bench/, examples/ or perfbench/ other than its own .cc. A
# header only tests (and its own .cc) include is code only its own
# tests reach: delete it, or give it a caller.
# Required -D variables: ROOT (the repository root).

if(NOT DEFINED ROOT)
    message(FATAL_ERROR "test_only_headers.cmake: -DROOT= is required")
endif()

set(included "")
foreach(dir IN ITEMS src tools bench examples perfbench)
    file(GLOB_RECURSE files ${ROOT}/${dir}/*.cc ${ROOT}/${dir}/*.cpp
        ${ROOT}/${dir}/*.hh)
    foreach(file IN LISTS files)
        file(STRINGS ${file} lines REGEX "^#include \"[^\"]+\\.hh\"")
        foreach(line IN LISTS lines)
            string(REGEX REPLACE "^#include \"([^\"]+)\".*" "\\1" hh
                "${line}")
            string(REGEX REPLACE "\\.hh$" ".cc" own "${ROOT}/src/${hh}")
            if(NOT file STREQUAL own)
                list(APPEND included ${hh})
            endif()
        endforeach()
    endforeach()
endforeach()

file(GLOB_RECURSE headers RELATIVE ${ROOT}/src ${ROOT}/src/*.hh)
set(orphans "")
foreach(hh IN LISTS headers)
    list(FIND included ${hh} at)
    if(at EQUAL -1)
        list(APPEND orphans ${hh})
    endif()
endforeach()
list(LENGTH headers n)
if(n EQUAL 0)
    message(FATAL_ERROR "test_only_headers: no headers under ${ROOT}/src")
endif()
if(orphans)
    string(REPLACE ";" ", " orphans "${orphans}")
    message(FATAL_ERROR "test_only_headers: only tests include "
        "${orphans}")
endif()
message(STATUS "test_only_headers: all ${n} src/ headers have a "
    "non-test includer")
