/**
 * @file
 * Thread-local heap-allocation counting.
 *
 * The perf_opt work (DESIGN.md §12) promises a zero-alloc steady
 * state for the epoch decision loop; this counter is how tests and
 * the span profiler verify it instead of trusting code review. A
 * replaceable global operator new increments a thread-local counter
 * before delegating to malloc, so `threadAllocCount()` deltas give
 * the exact number of heap allocations a region of code performed on
 * the calling thread — no sampling, no instrumentation flags.
 *
 * Under AddressSanitizer/ThreadSanitizer the replacement is compiled
 * out (the sanitizer runtimes intercept operator new themselves, and
 * double-interception breaks their bookkeeping); callers must branch
 * on `allocCountingEnabled()` rather than assume counts move.
 *
 * The counter is thread-local on purpose: spans measure the work of
 * the thread that opened them, and a cross-thread total would make
 * per-span deltas racy and meaningless.
 */

#ifndef AHQ_OBS_ALLOC_HH
#define AHQ_OBS_ALLOC_HH

#include <cstdint>

namespace ahq::obs
{

/**
 * Heap allocations (operator new / new[]) performed by the calling
 * thread since it started. Monotonic; take deltas around a region
 * to count its allocations. Always 0 when counting is disabled.
 */
std::uint64_t threadAllocCount() noexcept;

/**
 * True when the counting operator new replacement is linked in
 * (i.e. not a sanitizer build).
 */
bool allocCountingEnabled() noexcept;

} // namespace ahq::obs

#endif // AHQ_OBS_ALLOC_HH
