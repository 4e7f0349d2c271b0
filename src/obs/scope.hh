/**
 * @file
 * obs::Scope — the handle instrumentation sites hold.
 *
 * A Scope bundles an optional TraceSink, an optional
 * MetricsRegistry and the context tags (scenario id, current epoch)
 * that every emitted event carries. Both pointers default to null,
 * so an un-instrumented run pays exactly one branch per potential
 * event — the <2% overhead contract on the epoch loop with tracing
 * off (DESIGN.md §8).
 *
 * Every event line carries a `v` schema-version field (see
 * docs/TRACE_SCHEMA.md for the event taxonomy and evolution rules).
 */

#ifndef AHQ_OBS_SCOPE_HH
#define AHQ_OBS_SCOPE_HH

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace_sink.hh"

namespace ahq::obs
{

class SpanProfiler;
class TimeSeriesRegistry;
struct EventStrings;

/** Version stamped into every trace event as `"v"`. */
inline constexpr int kSchemaVersion = 1;

/**
 * One trace event under construction. Fields render in call order
 * after the standard header (v, type, scenario, epoch), so a given
 * emission site always produces the same byte layout.
 *
 * The payload and the rendered line are the calling thread's
 * strings for this Event's nesting depth: the constructor clears
 * the payload, render() clears and rewrites the line, and both keep
 * their capacity, so a warm steady state assembles events without
 * heap allocations. An Event opened while this one is alive takes
 * the next depth's strings, so Events on a thread are scope-bound:
 * the most recent is destroyed first. The view render() returns is
 * valid until this Event is destroyed or rendered again. `type` is
 * not copied: the caller keeps it alive (every emission site passes
 * a string literal).
 */
class Event
{
  public:
    explicit Event(std::string_view type);
    ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    Event &num(std::string_view key, double v);
    Event &integer(std::string_view key, long long v);
    Event &str(std::string_view key, std::string_view v);
    Event &nums(std::string_view key, const std::vector<double> &v);
    Event &ints(std::string_view key, const std::vector<int> &v);
    Event &strs(std::string_view key,
                const std::vector<std::string> &v);

    /** The full JSONL line (no trailing newline). */
    std::string_view render(std::string_view scenario,
                            int epoch) const;

  private:
    Event(std::string_view type, EventStrings &strings);

    void key(std::string_view k);

    std::string_view type_;
    std::string &payload_;
    std::string &line_;
};

/**
 * The instrumentation handle threaded through SimulationConfig and
 * the schedulers. Copyable by design: derived scopes (per scenario
 * tag, per epoch) are value copies pointing at the same sink and
 * registry, so the owner of those objects controls their lifetime.
 */
struct Scope
{
    /** Event destination; null = tracing off. */
    TraceSink *sink = nullptr;

    /** Metric destination; null = metrics off. */
    MetricsRegistry *metrics = nullptr;

    /** Scenario tag stamped into every event (may be empty). */
    std::string scenario;

    /** Current epoch index stamped into events; -1 = omitted. */
    int epoch = -1;

    /**
     * Opt in to wall-clock fields (e.g. scenario_end wall_ms).
     * Off by default: wall times differ run to run, which would
     * break the byte-identical trace reproducibility contract.
     */
    bool wallClock = false;

    /**
     * Span destination; null = profiling off, and every obs::Span
     * constructed against this scope is a single branch. See
     * obs/span.hh for the aggregation and determinism rules.
     */
    SpanProfiler *prof = nullptr;

    /**
     * Time-series destination; null = no series recording. Rides
     * along every derived-scope copy, so attaching a registry at
     * the top level (CLI, Fleet) instruments every nested
     * simulator without further plumbing. See obs/timeseries.hh.
     */
    TimeSeriesRegistry *series = nullptr;

    /** Whether events would actually be written. */
    bool tracing() const { return sink != nullptr; }

    /** Whether spans would actually be recorded. */
    bool profiling() const { return prof != nullptr; }

    /** Render and write an event (no-op without a sink). */
    void emit(const Event &ev) const
    {
        if (sink != nullptr)
            sink->write(ev.render(scenario, epoch));
    }

    /** Counter shortcut (no-op without a registry). */
    void count(std::string_view name, double delta = 1.0) const
    {
        if (metrics != nullptr)
            metrics->add(name, delta);
    }

    /** Histogram shortcut (no-op without a registry). */
    void observe(std::string_view name, double value) const
    {
        if (metrics != nullptr)
            metrics->observe(name, value);
    }

    /** Copy of this scope with a different scenario tag. */
    Scope tagged(std::string tag) const
    {
        Scope s = *this;
        s.scenario = std::move(tag);
        return s;
    }

    /** Copy of this scope positioned at an epoch. */
    Scope atEpoch(int e) const
    {
        Scope s = *this;
        s.epoch = e;
        return s;
    }

    /** Copy of this scope writing to a different sink. */
    Scope withSink(TraceSink *s) const
    {
        Scope out = *this;
        out.sink = s;
        return out;
    }
};

} // namespace ahq::obs

#endif // AHQ_OBS_SCOPE_HH
