/**
 * @file
 * Reader for JSONL traces written by obs::Scope.
 *
 * A deliberately small parser covering exactly the shapes the
 * writer produces: flat objects whose values are strings, numbers,
 * booleans, null, or arrays of strings/numbers. Anything else (and
 * any malformed line) raises std::runtime_error with the offending
 * line number, so a truncated or foreign file fails loudly instead
 * of being silently misread.
 */

#ifndef AHQ_OBS_TRACE_READER_HH
#define AHQ_OBS_TRACE_READER_HH

#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ahq::obs
{

/** One decoded field value. */
struct TraceValue
{
    enum class Kind
    {
        Null,
        Number,
        String,
        NumberArray,
        StringArray,
    };

    Kind kind = Kind::Null;
    double number = 0.0;
    std::string string;
    std::vector<double> numbers;
    std::vector<std::string> strings;
};

/** One decoded trace event (a flat field map). */
struct TraceEvent
{
    std::map<std::string, TraceValue> fields;

    /** Number field, or def when absent / not a number. */
    double num(const std::string &key, double def = 0.0) const;

    /** String field, or def when absent / not a string. */
    std::string str(const std::string &key,
                    const std::string &def = {}) const;

    /** Number-array field (empty when absent). */
    std::vector<double> nums(const std::string &key) const;

    /** String-array field (empty when absent). */
    std::vector<std::string> strs(const std::string &key) const;

    /** Whether the field exists. */
    bool has(const std::string &key) const;

    /** The event's "type" field ("" when missing). */
    std::string type() const { return str("type"); }
};

/** Parse one JSONL line. @throws std::runtime_error on bad input. */
TraceEvent parseTraceLine(const std::string &line);

/**
 * Whether `type` belongs to the documented schema-v1 taxonomy
 * (docs/TRACE_SCHEMA.md). Readers use this to count — rather than
 * silently drop — event types they do not understand.
 */
bool isKnownTraceType(std::string_view type);

/**
 * Tally of one streaming read. Events whose type is outside the
 * schema taxonomy are still delivered to the callback, but they
 * are counted here and mirrored into the `reader.unknown_events`
 * counter on globalMetrics(), so foreign or future-schema lines
 * always leave a trace instead of vanishing.
 */
struct TraceReadStats
{
    std::uint64_t events = 0;
    std::uint64_t unknownEvents = 0;
    /** Blank lines skipped without being parsed. */
    std::uint64_t skippedLines = 0;
    /** Distinct unknown types with occurrence counts. */
    std::map<std::string, std::uint64_t> unknownTypes;
};

/** Callback receiving each event with its 1-based line number. */
using TraceEventFn =
    std::function<void(const TraceEvent &, int line)>;

/**
 * Stream a trace: parse one line at a time (blank lines skipped)
 * and hand each event to `fn` without materialising the file. The
 * reader itself holds one line; what a caller keeps is its own
 * fold. Of the analysis verbs, `ahq trace` keeps per-epoch data
 * (every epoch's t and E_S) and `ahq timeline` per-bucket data
 * (every matching series' buckets); `alerts` keeps one row per alert
 * transition and `experiment analyze` one per block, and the rest
 * only aggregate. When `stats` is non-null it is filled with the
 * event / unknown-type tally for the read.
 * @throws std::runtime_error with a "line N:" prefix on the first
 *         malformed line (nothing after it is delivered); anything
 *         `fn` throws propagates with the same line prefix.
 */
void forEachTrace(std::istream &in, const TraceEventFn &fn,
                  TraceReadStats *stats = nullptr);

/**
 * Stream a trace file.
 * @throws std::runtime_error when the file cannot be opened, or as
 *         forEachTrace with the path prefixed.
 */
void forEachTraceFile(const std::string &path,
                      const TraceEventFn &fn,
                      TraceReadStats *stats = nullptr);

} // namespace ahq::obs

#endif // AHQ_OBS_TRACE_READER_HH
