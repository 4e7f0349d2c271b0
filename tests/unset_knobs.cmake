# The `ctest -L lint` check for knobs only tests set, run via
# `cmake -P`.
#
# Every non-static data member of a `struct ...Config` or
# `struct ...Traits` declared in a header under src/ must be assigned
# by some file under src/ (other than that header), tools/, bench/,
# examples/ or perfbench/: `.name =`, `.name +=`, `.name *=` or
# `->name =`, directly or through a nested member
# (`.name.inner = ...`). A field nothing but tests sets runs at its
# default everywhere else: make it a named constant next to its
# reader, or give it a caller. Members are matched by name, so a
# field counts as set when any such file assigns a member of that
# name.
# Required -D variables: ROOT (the repository root).

if(NOT DEFINED ROOT)
    message(FATAL_ERROR "unset_knobs.cmake: -DROOT= is required")
endif()

# Knobs kept for a test that cannot show its behaviour at the
# default: each Struct::field, then the test that sets it.
set(kept_for_tests
    SimulationConfig::queueCapSeconds
    ExperimentHarness.ChaosComposedNaiveLosesCoverageDqKeepsIt)
string(REGEX MATCHALL "[A-Za-z_]+::[A-Za-z_]+" kept "${kept_for_tests}")

set(sources "")
foreach(dir IN ITEMS src tools bench examples perfbench)
    file(GLOB_RECURSE files ${ROOT}/${dir}/*.cc ${ROOT}/${dir}/*.cpp
        ${ROOT}/${dir}/*.hh)
    list(APPEND sources ${files})
endforeach()

# A data member at the struct body's indent: a type, the name, then
# a default (`= ...` or `{...}`) or nothing, then `;`.
string(CONCAT member_re "^[A-Za-z_][A-Za-z0-9_:<>, ]*[ &*]"
    "([A-Za-z_][A-Za-z0-9_]*)( = [^;]*| *{[^;]*})?;")

file(GLOB_RECURSE headers ${ROOT}/src/*.hh)
set(fields 0)
set(unset "")
foreach(hh IN LISTS headers)
    file(STRINGS ${hh} lines)
    set(in_struct "")
    set(members "")
    foreach(line IN LISTS lines)
        if(in_struct STREQUAL "")
            if(line MATCHES "^( *)struct ([A-Za-z_]+(Config|Traits))$")
                set(in_struct ${CMAKE_MATCH_2})
                set(indent "${CMAKE_MATCH_1}")
            endif()
            continue()
        endif()
        if(line STREQUAL "${indent}};")
            set(in_struct "")
            continue()
        endif()
        string(LENGTH "${indent}    " width)
        string(LENGTH "${line}" len)
        if(len LESS_EQUAL width)
            continue()
        endif()
        string(SUBSTRING "${line}" 0 ${width} lead)
        string(SUBSTRING "${line}" ${width} -1 body)
        if(NOT lead STREQUAL "${indent}    " OR body MATCHES "^ "
           OR body MATCHES "^(static|using|friend|return) ")
            continue()
        endif()
        if(body MATCHES "${member_re}")
            list(APPEND members "${in_struct}::${CMAKE_MATCH_1}")
        endif()
    endforeach()
    if(members STREQUAL "")
        continue()
    endif()

    # Every candidate file but this header, read once per header.
    set(others "")
    foreach(file IN LISTS sources)
        if(NOT file STREQUAL hh)
            file(READ ${file} text)
            string(APPEND others "${text}\n")
        endif()
    endforeach()
    foreach(member IN LISTS members)
        math(EXPR fields "${fields} + 1")
        string(REGEX REPLACE "^.*::" "" name "${member}")
        if(others MATCHES
           "(\\.|->)${name}(\\.[A-Za-z_][A-Za-z0-9_]*)* *[+*]?=[^=]")
            continue()
        endif()
        list(FIND kept "${member}" at)
        if(at EQUAL -1)
            list(APPEND unset "${member}")
        endif()
    endforeach()
endforeach()

if(fields EQUAL 0)
    message(FATAL_ERROR "unset_knobs: no Config/Traits fields under "
        "${ROOT}/src")
endif()
if(unset)
    string(REPLACE ";" ", " unset "${unset}")
    message(FATAL_ERROR "unset_knobs: only tests set ${unset}")
endif()
message(STATUS "unset_knobs: all ${fields} src/ Config/Traits fields "
    "have a non-test setter or a listed test")
