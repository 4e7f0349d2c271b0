# The `ctest -L figures` byte oracle, run via `cmake -P`.
#
# Runs every figure/table bench with AHQ_BENCH_OUT pointed at a
# fresh directory; each committed CSV must match the one it wrote.
# Required -D variables: BIN_DIR (where the bench binaries are),
# BENCHES (comma-separated bench names), OUT (scratch output
# directory), REF (the committed bench_out/ directory).

foreach(var BIN_DIR BENCHES OUT REF)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "figures.cmake: -D${var}= is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
set(ENV{AHQ_BENCH_OUT} ${OUT})

string(REPLACE "," ";" benches "${BENCHES}")
foreach(bench IN LISTS benches)
    execute_process(COMMAND ${BIN_DIR}/${bench}
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "figures: ${bench} failed (exit ${rc})")
    endif()
endforeach()

file(GLOB committed RELATIVE ${REF} ${REF}/*.csv)
set(mismatched "")
foreach(csv IN LISTS committed)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${REF}/${csv}
            ${OUT}/${csv}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        list(APPEND mismatched ${csv})
    endif()
endforeach()
list(LENGTH committed n)
if(n EQUAL 0)
    message(FATAL_ERROR "figures: no committed CSVs under ${REF}")
endif()
if(mismatched)
    string(REPLACE ";" ", " mismatched "${mismatched}")
    message(FATAL_ERROR "figures: ${mismatched} differ from ${REF} "
        "(or were not written)")
endif()
message(STATUS "figures: all ${n} CSVs match ${REF}")
