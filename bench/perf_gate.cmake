# The `ctest -L perf` regression gate, run via `cmake -P`.
#
# Runs a timing bench with --json and diffs the fresh numbers
# against the committed baseline with `ahq bench-diff` (default 10%
# threshold). Timing on a loaded machine can transiently dip far
# beyond any sane threshold, so a flagged diff is retried with a
# fresh benchmark run up to 3 attempts — a real regression is
# deterministic and fails all three, transient load noise is not and
# passes a later attempt.
#
# Required -D variables: BENCH (the bench binary), AHQ (the ahq
# binary), BASELINE (committed BENCH_*.json), JSON (scratch output
# path). Optional: THRESHOLD (regression fraction handed to
# bench-diff; defaults to bench-diff's own 10% when empty).

foreach(var BENCH AHQ BASELINE JSON)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "perf_gate.cmake: -D${var}= is required")
    endif()
endforeach()
set(threshold_args "")
if(DEFINED THRESHOLD AND NOT THRESHOLD STREQUAL "")
    set(threshold_args "--threshold=${THRESHOLD}")
endif()

set(attempts 3)
foreach(attempt RANGE 1 ${attempts})
    execute_process(COMMAND ${BENCH} --json=${JSON}
        RESULT_VARIABLE bench_rc OUTPUT_QUIET)
    if(NOT bench_rc EQUAL 0)
        message(FATAL_ERROR
            "perf gate: ${BENCH} failed (exit ${bench_rc})")
    endif()
    execute_process(
        COMMAND ${AHQ} bench-diff ${threshold_args} --baseline
            ${BASELINE} ${JSON}
        RESULT_VARIABLE diff_rc OUTPUT_VARIABLE diff_out)
    message("${diff_out}")
    if(diff_rc EQUAL 0)
        return()
    endif()
    if(diff_rc EQUAL 2)
        message(FATAL_ERROR "perf gate: bench-diff usage error")
    endif()
    if(attempt LESS attempts)
        message(STATUS "perf gate: attempt ${attempt}/${attempts} "
            "flagged a regression; re-measuring")
    endif()
endforeach()
message(FATAL_ERROR "perf gate: regression vs ${BASELINE} "
    "persisted across ${attempts} attempts")
