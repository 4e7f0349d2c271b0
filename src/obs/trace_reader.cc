/**
 * @file
 * JSONL trace parser implementation.
 */

#include "obs/trace_reader.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "obs/metrics.hh"

namespace ahq::obs
{

namespace
{

/** Cursor over one line with parse helpers. */
struct Cursor
{
    const std::string &s;
    std::size_t i = 0;

    [[noreturn]] void fail(const std::string &what) const
    {
        throw std::runtime_error("bad trace line at column " +
                                 std::to_string(i + 1) + ": " +
                                 what);
    }

    void skipWs()
    {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    }

    char peek() const { return i < s.size() ? s[i] : '\0'; }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++i;
    }

    bool consume(char c)
    {
        if (peek() != c)
            return false;
        ++i;
        return true;
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (i >= s.size())
                fail("unterminated string");
            const char c = s[i++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (i >= s.size())
                fail("dangling escape");
            const char e = s[i++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out.push_back(e);
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'u': {
                if (i + 4 > s.size())
                    fail("short \\u escape");
                unsigned code = 0;
                const auto res = std::from_chars(
                    s.data() + i, s.data() + i + 4, code, 16);
                if (res.ptr != s.data() + i + 4)
                    fail("bad \\u escape");
                i += 4;
                // The writer only escapes control bytes, so a
                // one-byte reconstruction is exact for our traces.
                if (code > 0xff)
                    fail("unsupported \\u escape > 0xff");
                out.push_back(static_cast<char>(code));
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    double parseNumber()
    {
        const std::size_t start = i;
        if (peek() == '-')
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '+' || s[i] == '-'))
            ++i;
        double v = 0.0;
        const auto res =
            std::from_chars(s.data() + start, s.data() + i, v);
        if (res.ec != std::errc() || res.ptr != s.data() + i)
            fail("bad number");
        return v;
    }

    bool consumeWord(const char *w)
    {
        const std::size_t len = std::char_traits<char>::length(w);
        if (s.compare(i, len, w) != 0)
            return false;
        i += len;
        return true;
    }

    TraceValue parseValue()
    {
        skipWs();
        TraceValue v;
        const char c = peek();
        if (c == '"') {
            v.kind = TraceValue::Kind::String;
            v.string = parseString();
        } else if (c == '[') {
            ++i;
            skipWs();
            if (consume(']')) {
                v.kind = TraceValue::Kind::NumberArray;
                return v;
            }
            const bool strings = peek() == '"';
            v.kind = strings ? TraceValue::Kind::StringArray
                             : TraceValue::Kind::NumberArray;
            while (true) {
                skipWs();
                if (strings)
                    v.strings.push_back(parseString());
                else if (consumeWord("null"))
                    v.numbers.push_back(0.0);
                else
                    v.numbers.push_back(parseNumber());
                skipWs();
                if (consume(']'))
                    return v;
                expect(',');
            }
        } else if (consumeWord("null")) {
            v.kind = TraceValue::Kind::Null;
        } else if (consumeWord("true")) {
            v.kind = TraceValue::Kind::Number;
            v.number = 1.0;
        } else if (consumeWord("false")) {
            v.kind = TraceValue::Kind::Number;
            v.number = 0.0;
        } else if (c == '{') {
            fail("nested objects are not part of the trace schema");
        } else {
            v.kind = TraceValue::Kind::Number;
            v.number = parseNumber();
        }
        return v;
    }
};

} // namespace

double
TraceEvent::num(const std::string &key, double def) const
{
    const auto it = fields.find(key);
    return it != fields.end() &&
            it->second.kind == TraceValue::Kind::Number ?
        it->second.number : def;
}

std::string
TraceEvent::str(const std::string &key, const std::string &def) const
{
    const auto it = fields.find(key);
    return it != fields.end() &&
            it->second.kind == TraceValue::Kind::String ?
        it->second.string : def;
}

std::vector<double>
TraceEvent::nums(const std::string &key) const
{
    const auto it = fields.find(key);
    return it != fields.end() &&
            it->second.kind == TraceValue::Kind::NumberArray ?
        it->second.numbers : std::vector<double>{};
}

std::vector<std::string>
TraceEvent::strs(const std::string &key) const
{
    const auto it = fields.find(key);
    return it != fields.end() &&
            it->second.kind == TraceValue::Kind::StringArray ?
        it->second.strings : std::vector<std::string>{};
}

bool
TraceEvent::has(const std::string &key) const
{
    return fields.find(key) != fields.end();
}

TraceEvent
parseTraceLine(const std::string &line)
{
    Cursor c{line};
    c.skipWs();
    c.expect('{');
    TraceEvent ev;
    c.skipWs();
    if (!c.consume('}')) {
        while (true) {
            c.skipWs();
            std::string key = c.parseString();
            c.skipWs();
            c.expect(':');
            ev.fields[std::move(key)] = c.parseValue();
            c.skipWs();
            if (c.consume('}'))
                break;
            c.expect(',');
        }
    }
    c.skipWs();
    if (c.i != line.size())
        c.fail("trailing characters");
    return ev;
}

bool
isKnownTraceType(std::string_view type)
{
    // The schema-v1 taxonomy (docs/TRACE_SCHEMA.md). Sorted so the
    // lookup is a binary search; update alongside the doc table.
    static constexpr std::string_view kKnown[] = {
        "alert_clear",      "alert_raise",
        "arq_decision",     "attribution",
        "bench",            "clite_decision",
        "cluster_end",      "cluster_migrate",
        "cluster_round",    "cluster_start",
        "epoch",            "experiment_block",
        "experiment_end",   "experiment_start",
        "fault",            "fleet_end",
        "fleet_node",       "fleet_start",
        "parties_decision", "policy_swap",
        "recovery",         "run_end",
        "run_start",        "scenario_end",
        "scenario_start",   "series",
        "span",             "violation",
    };
    return std::binary_search(std::begin(kKnown),
                              std::end(kKnown), type);
}

void
forEachTrace(std::istream &in, const TraceEventFn &fn,
             TraceReadStats *stats)
{
    std::string line;
    int n = 0;
    std::uint64_t unknown = 0;
    while (std::getline(in, line)) {
        ++n;
        if (line.empty()) {
            if (stats != nullptr)
                ++stats->skippedLines;
            continue;
        }
        try {
            const TraceEvent ev = parseTraceLine(line);
            if (stats != nullptr) {
                ++stats->events;
                const std::string type = ev.type();
                if (!isKnownTraceType(type)) {
                    ++stats->unknownEvents;
                    ++stats->unknownTypes[type];
                    ++unknown;
                }
            }
            fn(ev, n);
        } catch (const std::exception &e) {
            throw std::runtime_error("line " + std::to_string(n) +
                                     ": " + e.what());
        }
    }
    // Unknown types must leave a trace even when the caller drops
    // the stats struct on the floor.
    if (unknown > 0)
        globalMetrics().add("reader.unknown_events",
                            static_cast<double>(unknown));
}

void
forEachTraceFile(const std::string &path, const TraceEventFn &fn,
                 TraceReadStats *stats)
{
    std::ifstream in(path);
    if (!in.is_open())
        throw std::runtime_error("cannot open trace: " + path);
    try {
        forEachTrace(in, fn, stats);
    } catch (const std::exception &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

} // namespace ahq::obs
