/**
 * @file
 * MetricsRegistry: named counters and fixed-bucket histograms for
 * the telemetry layer.
 *
 * Design constraints (see DESIGN.md §8):
 *  - cheap enough for the epoch hot path: one mutex-protected map
 *    update per recording, and instrumentation sites only call in
 *    when a registry is attached to their obs::Scope;
 *  - shared: every node of a fan-out records into one registry,
 *    and its updates commute (counters and histogram buckets add),
 *    so totals are the same at any thread count — the exec layer's
 *    serial==parallel contract;
 *  - self-contained: no dependency on any other ahq module.
 */

#ifndef AHQ_OBS_METRICS_HH
#define AHQ_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ahq::obs
{

/** Snapshot of one fixed-bucket histogram. */
struct HistogramSnapshot
{
    /**
     * Upper bounds of the finite buckets, ascending. A value v is
     * counted in the first bucket with v <= bound; values above the
     * last bound land in the implicit overflow bucket.
     */
    std::vector<double> bounds;

    /** Per-bucket counts; size == bounds.size() + 1 (overflow last). */
    std::vector<std::uint64_t> counts;

    std::uint64_t total = 0;
    double sum = 0.0;
};

/**
 * A registry of named metrics. All operations are thread-safe.
 * Every histogram shares one bucket layout (latency-flavoured, ms
 * scale; the snapshot lists it).
 */
class MetricsRegistry
{
  public:
    /** Add delta to a counter (created at 0 on first use). */
    void add(std::string_view name, double delta = 1.0);

    /** Record a value into a histogram. */
    void observe(std::string_view name, double value);

    /**
     * Fold pre-aggregated observations into a histogram: for each
     * (value, count) pair, count occurrences of approximately
     * `value`; `sum` is added to the histogram's running sum once
     * (callers that track an exact total pass it here instead of
     * count * value). Used by SpanProfiler to publish `prof.*`
     * histograms from its log2 buckets.
     */
    void observeBucketed(
        const std::string &name,
        const std::vector<std::pair<double, std::uint64_t>>
            &valueCounts,
        double sum);

    /** Counter value (0 when absent). */
    double counter(const std::string &name) const;

    /** Histogram snapshot (empty when absent). */
    HistogramSnapshot histogram(const std::string &name) const;

    /** Human-readable dump, one metric per line, sorted by name. */
    void print(std::ostream &os) const;

  private:
    struct Histogram
    {
        std::vector<std::uint64_t> counts;
        std::uint64_t total = 0;
        double sum = 0.0;
    };

    /** The histogram for `name` (caller holds `m`). */
    Histogram &histogramFor(std::string_view name);

    // Transparent comparators: lookups take a string_view, and a
    // name is copied only when it is first inserted.
    mutable std::mutex m;
    std::map<std::string, double, std::less<>> counters_;
    std::map<std::string, Histogram, std::less<>> hists_;
};

/** The process-wide registry (what `ahq --metrics` dumps). */
MetricsRegistry &globalMetrics();

} // namespace ahq::obs

#endif // AHQ_OBS_METRICS_HH
