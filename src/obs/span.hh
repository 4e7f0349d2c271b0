/**
 * @file
 * SpanProfiler + obs::Span — self-profiling for the hot paths.
 *
 * A Span is an RAII timer: construction notes the steady-clock
 * time, destruction records the elapsed nanoseconds under a
 * hierarchical path built from the thread-local stack of open
 * spans ("run/epoch/decide/arq.search"). A SpanProfiler aggregates
 * those recordings per path: invocation count, total/max wall time
 * as integer nanoseconds (so merge order never changes a total),
 * and a log2-bucket histogram from which approximate quantiles are
 * read deterministically.
 *
 * Determinism contract (DESIGN.md §11): a profiler is private to
 * one node. exec::NodeFanOut gives each node its own, flushes it
 * into that node's trace buffer and merges it into the parent's;
 * every field is integral, so merges commute and the parent's
 * totals do not depend on which node finishes first. The
 * wall-time fields of the emitted `span` events ride on
 * Scope::wallClock — with it off (the default) span-bearing traces
 * stay byte-identical at any thread count because only paths and
 * counts are serialised.
 *
 * Cost contract: a Span whose profiler pointer is null is one
 * branch — no clock read, no allocation — so the profiler-off
 * epoch loop stays inside the established <2% overhead budget
 * (DESIGN.md §11).
 */

#ifndef AHQ_OBS_SPAN_HH
#define AHQ_OBS_SPAN_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/scope.hh"

namespace ahq::obs
{

/**
 * Aggregated wall-time statistics of the spans recorded under one
 * path. Thread-safe to fill concurrently; all fields are integral
 * or derived from integrals, so merges commute.
 */
class SpanProfiler
{
  public:
    /** Number of log2 duration buckets (bucket i holds ns with
     *  bit_width(ns) == i; bucket 0 holds zero-length spans). */
    static constexpr std::size_t kBuckets = 65;

    struct Stats
    {
        std::uint64_t count = 0;
        std::uint64_t totalNs = 0;
        std::uint64_t maxNs = 0;

        /**
         * Heap allocations performed on the recording thread while
         * the span was open (obs/alloc.hh; 0 in sanitizer builds).
         * Like wall time, allocation counts depend on buffer
         * warm-up and thus on how jobs land on workers, so they are
         * only serialised under Scope::wallClock.
         */
        std::uint64_t allocs = 0;

        std::array<std::uint64_t, kBuckets> buckets{};

        /**
         * Approximate quantile (0..1) in nanoseconds: the upper
         * bound of the first log2 bucket whose cumulative count
         * reaches q * count. Resolution is a factor of two —
         * deterministic, and plenty for "where does the time go".
         */
        std::uint64_t quantileNs(double q) const;
    };

    /** Record one completed span under an already-built path. */
    void record(std::string_view path, std::uint64_t ns,
                std::uint64_t allocs = 0);

    /** Fold another profiler's stats into this one (commutative). */
    void merge(const SpanProfiler &other);

    /** Copy of the per-path aggregates, sorted by path. */
    std::map<std::string, Stats, std::less<>> snapshot() const;

    /**
     * Emit one schema-v1 `span` event per path (sorted by path —
     * deterministic order) into the scope's sink, and fold
     * `prof.*` metrics into its registry. Wall-time fields
     * (total_ms, mean_ms, p99_ms, max_ms) are only rendered when
     * scope.wallClock is set; path/name/parent/depth/count are
     * always present.
     */
    void flush(const Scope &scope) const;

  private:
    mutable std::mutex m_;
    /** Looked up by string_view: a path is copied on first insert. */
    std::map<std::string, Stats, std::less<>> spans_;
};

/**
 * RAII hierarchical timer. Open spans on a thread form a stack;
 * a span's path is its ancestors' names joined with '/'. Spans
 * must be strictly nested (scope-bound), and nested spans on one
 * thread must target the same profiler — a span whose profiler
 * differs from the innermost open one starts a fresh root path,
 * so independently-attached profilers (e.g. ThreadPool's) never
 * leak into a job profiler's hierarchy.
 */
class Span
{
  public:
    /** No-op when prof is null (one branch, no clock read). */
    Span(SpanProfiler *prof, std::string_view name)
    {
        if (prof != nullptr)
            open(prof, name);
    }

    /** Convenience: profile against the scope's profiler. */
    Span(const Scope &scope, std::string_view name)
        : Span(scope.prof, name)
    {
    }

    ~Span()
    {
        if (prof_ != nullptr)
            close();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    void open(SpanProfiler *prof, std::string_view name);
    void close();

    SpanProfiler *prof_ = nullptr;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t allocStart_ = 0;
};

} // namespace ahq::obs

#endif // AHQ_OBS_SPAN_HH
