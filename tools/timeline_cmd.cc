/**
 * @file
 * `ahq timeline` — render the `series` events of a JSONL trace as
 * per-(scenario, series) timelines: aligned text sparklines with
 * fault / recovery / violation markers (default), CSV rows, or
 * JSON. The series events carry the deterministic folded buckets
 * of the TimeSeriesRegistry (docs/TRACE_SCHEMA.md), so the output
 * here is byte-identical whatever --jobs produced the trace — this
 * is the command-line Fig. 13.
 */

#include "cli.hh"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/json.hh"
#include "obs/scope.hh"
#include "obs/trace_reader.hh"
#include "report/table.hh"

namespace ahq::cli
{

namespace
{

/** One series event's folded buckets, as read back from a trace. */
struct SeriesData
{
    long long stride = 1;
    long long epochs = 0;
    long long capacity = 0;
    long long points = 0;
    std::vector<double> n, min, max, sum;

    /** Buckets actually carried (arrays are truncated to this). */
    std::size_t buckets() const { return n.size(); }
};

/** Epoch markers for one scenario, from fault-family events. */
struct Markers
{
    std::set<int> faults, recoveries, violations;

    /** alert_raise epochs (--slo runs), rendered on their own row. */
    std::set<int> alerts;

    bool empty() const
    {
        return faults.empty() && recoveries.empty() &&
            violations.empty();
    }
};

struct TimelineOptions
{
    std::string path;
    std::string scenario;                // empty = all
    std::vector<std::string> series;     // empty = all
    std::string format = "text";         // text | csv | json
    int width = 64;
};

TimelineOptions
parseTimelineArgs(const std::vector<std::string> &args)
{
    TimelineOptions opt;
    opt.path = onePath(
        Flags("timeline")
            .value("--scenario",
                   [&](const std::string &v) { opt.scenario = v; })
            .value("--series",
                   [&](const std::string &v) {
                       std::stringstream ss(v);
                       std::string name;
                       while (std::getline(ss, name, ','))
                           if (!name.empty())
                               opt.series.push_back(name);
                   })
            .value("--format",
                   [&](const std::string &v) {
                       opt.format =
                           oneOf(v, "--format", {"text", "csv", "json"});
                   })
            .value("--width",
                   [&](const std::string &v) {
                       opt.width = parseCount(v, "--width", 8, 4096);
                   })
            .parse(args));
    return opt;
}

/**
 * Pairwise-fold the bucket arrays in place until at most `width`
 * buckets remain — the same halving the registry itself applies on
 * overflow, so rendering at any width stays consistent with the
 * recorded resolution. Returns the display stride.
 */
long long
foldToWidth(SeriesData &d, int width)
{
    long long stride = d.stride;
    while (d.buckets() > static_cast<std::size_t>(width)) {
        const std::size_t half = (d.buckets() + 1) / 2;
        for (std::size_t i = 0; i < half; ++i) {
            const std::size_t a = 2 * i, b = 2 * i + 1;
            double cnt = d.n[a], mn = d.min[a], mx = d.max[a],
                   sm = d.sum[a];
            if (b < d.buckets() && d.n[b] > 0) {
                if (cnt > 0) {
                    mn = std::min(mn, d.min[b]);
                    mx = std::max(mx, d.max[b]);
                } else {
                    mn = d.min[b];
                    mx = d.max[b];
                }
                cnt += d.n[b];
                sm += d.sum[b];
            }
            d.n[i] = cnt;
            d.min[i] = mn;
            d.max[i] = mx;
            d.sum[i] = sm;
        }
        d.n.resize(half);
        d.min.resize(half);
        d.max.resize(half);
        d.sum.resize(half);
        stride *= 2;
    }
    return stride;
}

/** Count-weighted summary over the (unfolded) buckets. */
struct Summary
{
    double min = 0.0, max = 0.0, mean = 0.0, p99 = 0.0;
    std::uint64_t count = 0;
};

Summary
summarize(const SeriesData &d)
{
    Summary s;
    bool any = false;
    double total_sum = 0.0;
    std::uint64_t total_count = 0;
    // (bucket max, bucket count): the p99 below is the
    // count-weighted 99th percentile of per-bucket maxima — an
    // upper estimate that survives downsampling, since folding
    // preserves maxima exactly.
    std::vector<std::pair<double, std::uint64_t>> maxima;
    for (std::size_t i = 0; i < d.buckets(); ++i) {
        if (d.n[i] <= 0)
            continue;
        const auto cnt = static_cast<std::uint64_t>(d.n[i]);
        if (!any) {
            s.min = d.min[i];
            s.max = d.max[i];
            any = true;
        } else {
            s.min = std::min(s.min, d.min[i]);
            s.max = std::max(s.max, d.max[i]);
        }
        total_sum += d.sum[i];
        total_count += cnt;
        maxima.emplace_back(d.max[i], cnt);
    }
    if (!any)
        return s;
    s.count = total_count;
    s.mean = total_sum / static_cast<double>(total_count);
    std::sort(maxima.begin(), maxima.end());
    const double target =
        0.99 * static_cast<double>(total_count);
    std::uint64_t seen = 0;
    s.p99 = maxima.back().first;
    for (const auto &[mx, cnt] : maxima) {
        seen += cnt;
        if (static_cast<double>(seen) >= target) {
            s.p99 = mx;
            break;
        }
    }
    return s;
}

/** ASCII intensity ramp, low to high (space = empty bucket). */
constexpr std::string_view kRamp = ".:-=+*#%@";

char
rampChar(double value, double lo, double hi)
{
    if (!(hi > lo))
        return kRamp[kRamp.size() / 2];
    double t = (value - lo) / (hi - lo);
    t = std::min(1.0, std::max(0.0, t));
    const auto idx = std::min(
        kRamp.size() - 1,
        static_cast<std::size_t>(
            t * static_cast<double>(kRamp.size())));
    return kRamp[idx];
}

/**
 * One marker char per display bucket: '!' violation beats 'x'
 * fault beats 'r' recovery when several land in the same bucket.
 */
std::string
markerRow(const Markers &m, std::size_t buckets,
          long long display_stride)
{
    std::string row(buckets, ' ');
    auto place = [&](const std::set<int> &epochs, char c) {
        for (int e : epochs) {
            const auto b = static_cast<std::size_t>(
                e / display_stride);
            if (b >= buckets)
                continue;
            // Priority: '!' > 'x' > 'r'.
            if (row[b] == '!' || (row[b] == 'x' && c == 'r'))
                continue;
            row[b] = c;
        }
    };
    place(m.recoveries, 'r');
    place(m.faults, 'x');
    place(m.violations, '!');
    return row;
}

} // namespace

int
runTimeline(const std::vector<std::string> &args, std::ostream &out,
            std::ostream &err)
{
    TimelineOptions opt;
    try {
        opt = parseTimelineArgs(args);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n"
            << "usage: ahq timeline [--series=a,b] "
               "[--scenario=TAG] [--format=text|csv|json] "
               "[--width=N] <file.jsonl>\n";
        return 2;
    }

    // First (and only) pass: collect series events and fault-family
    // markers, everything aggregated before anything is printed.
    std::map<std::pair<std::string, std::string>, SeriesData> data;
    std::map<std::string, Markers> markers;
    const std::set<std::string> wanted(opt.series.begin(),
                                       opt.series.end());
    obs::TraceReadStats stats;
    try {
        obs::forEachTraceFile(
            opt.path,
            [&](const obs::TraceEvent &ev, int) {
                const int v =
                    static_cast<int>(ev.num("v", -1.0));
                if (v != obs::kSchemaVersion) {
                    throw std::runtime_error(
                        "unsupported schema version " +
                        std::to_string(v) +
                        " (this build reads v" +
                        std::to_string(obs::kSchemaVersion) + ")");
                }
                const std::string scenario = ev.str("scenario");
                if (!opt.scenario.empty() &&
                    scenario != opt.scenario)
                    return;
                const std::string type = ev.type();
                if (type == "series") {
                    const std::string name = ev.str("series");
                    if (!wanted.empty() &&
                        wanted.find(name) == wanted.end())
                        return;
                    SeriesData d;
                    d.stride = static_cast<long long>(
                        ev.num("stride", 1.0));
                    d.epochs = static_cast<long long>(
                        ev.num("epochs"));
                    d.capacity = static_cast<long long>(
                        ev.num("capacity"));
                    d.points = static_cast<long long>(
                        ev.num("points"));
                    d.n = ev.nums("n");
                    d.min = ev.nums("min");
                    d.max = ev.nums("max");
                    d.sum = ev.nums("sum");
                    if (d.stride < 1)
                        d.stride = 1;
                    // Tolerate short arrays (foreign writers):
                    // clip to the common length.
                    const std::size_t len = std::min(
                        {d.n.size(), d.min.size(), d.max.size(),
                         d.sum.size()});
                    d.n.resize(len);
                    d.min.resize(len);
                    d.max.resize(len);
                    d.sum.resize(len);
                    data[{scenario, name}] = std::move(d);
                } else if (type == "fault" ||
                           type == "recovery" ||
                           type == "violation" ||
                           type == "alert_raise") {
                    const int epoch = static_cast<int>(
                        ev.num("epoch", -1.0));
                    if (epoch < 0)
                        return;
                    auto &m = markers[scenario];
                    if (type == "fault")
                        m.faults.insert(epoch);
                    else if (type == "recovery")
                        m.recoveries.insert(epoch);
                    else if (type == "alert_raise")
                        m.alerts.insert(epoch);
                    else
                        m.violations.insert(epoch);
                }
            },
            &stats);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
    if (data.empty()) {
        err << "error: " << opt.path
            << ": no matching series events (produce them with "
               "--trace; series land at the end of the trace)\n";
        return 1;
    }

    if (opt.format == "csv") {
        out << "scenario,series,bucket,epoch_lo,stride,count,min,"
               "max,mean\n";
        for (const auto &[key, d] : data) {
            for (std::size_t i = 0; i < d.buckets(); ++i) {
                out << key.first << "," << key.second << "," << i
                    << "," << (static_cast<long long>(i) * d.stride)
                    << "," << d.stride << ","
                    << static_cast<long long>(d.n[i]);
                if (d.n[i] > 0) {
                    std::string cells;
                    cells.push_back(',');
                    obs::json::appendNumber(cells, d.min[i]);
                    cells.push_back(',');
                    obs::json::appendNumber(cells, d.max[i]);
                    cells.push_back(',');
                    obs::json::appendNumber(cells,
                                      d.sum[i] / d.n[i]);
                    out << cells;
                } else {
                    out << ",,,";
                }
                out << "\n";
            }
        }
        if (stats.unknownEvents > 0) {
            err << "note: " << stats.unknownEvents
                << " unknown event(s) ignored\n";
        }
        return 0;
    }

    if (opt.format == "json") {
        std::string buf;
        buf += "{\"v\":1,\"series\":[";
        bool first = true;
        for (const auto &[key, d] : data) {
            if (!first)
                buf.push_back(',');
            first = false;
            buf += "{\"scenario\":";
            obs::json::appendString(buf, key.first);
            buf += ",\"series\":";
            obs::json::appendString(buf, key.second);
            buf += ",\"stride\":";
            obs::json::appendNumber(buf, d.stride);
            buf += ",\"epochs\":";
            obs::json::appendNumber(buf, d.epochs);
            buf += ",\"points\":";
            obs::json::appendNumber(buf, d.points);
            auto arr = [&](const char *name,
                           const std::vector<double> &vals) {
                buf += ",\"";
                buf += name;
                buf += "\":[";
                for (std::size_t i = 0; i < vals.size(); ++i) {
                    if (i)
                        buf.push_back(',');
                    obs::json::appendNumber(buf, vals[i]);
                }
                buf.push_back(']');
            };
            arr("n", d.n);
            arr("min", d.min);
            arr("max", d.max);
            arr("sum", d.sum);
            buf.push_back('}');
        }
        buf += "],\"markers\":[";
        first = true;
        for (const auto &[scenario, m] : markers) {
            auto list = [&](const std::set<int> &epochs,
                            const char *kind) {
                for (int e : epochs) {
                    if (!first)
                        buf.push_back(',');
                    first = false;
                    buf += "{\"scenario\":";
                    obs::json::appendString(buf, scenario);
                    buf += ",\"type\":";
                    obs::json::appendString(buf, kind);
                    buf += ",\"epoch\":";
                    obs::json::appendNumber(
                        buf, static_cast<long long>(e));
                    buf.push_back('}');
                }
            };
            list(m.faults, "fault");
            list(m.recoveries, "recovery");
            list(m.violations, "violation");
            list(m.alerts, "alert_raise");
        }
        buf += "]}";
        out << buf << "\n";
        if (stats.unknownEvents > 0) {
            err << "note: " << stats.unknownEvents
                << " unknown event(s) ignored\n";
        }
        return 0;
    }

    // Text mode: aligned sparklines, one block per
    // (scenario, series), sorted — deterministic whatever order
    // the events appeared in.
    out << opt.path << ": " << data.size() << " series (schema v"
        << obs::kSchemaVersion << ")\n";
    for (const auto &[key, original] : data) {
        const Summary s = summarize(original);
        SeriesData d = original;
        const long long display_stride = foldToWidth(d, opt.width);

        out << "\n"
            << (key.first.empty() ? "(untagged)" : key.first)
            << " :: " << key.second << "  (epochs=" << d.epochs
            << ", stride=" << original.stride
            << ", points=" << original.points << ")\n";
        if (s.count == 0) {
            out << "  (empty)\n";
            continue;
        }
        out << "  min=" << report::TextTable::num(s.min)
            << "  mean=" << report::TextTable::num(s.mean)
            << "  max=" << report::TextTable::num(s.max)
            << "  p99=" << report::TextTable::num(s.p99) << "\n";

        // Sparkline over bucket means, scaled to this series'
        // own [min, max] so shape survives unit differences.
        std::string line;
        line.reserve(d.buckets());
        for (std::size_t i = 0; i < d.buckets(); ++i) {
            line.push_back(
                d.n[i] > 0
                    ? rampChar(d.sum[i] / d.n[i], s.min, s.max)
                    : ' ');
        }
        out << "  |" << line << "|\n";

        const auto mit = markers.find(key.first);
        if (mit != markers.end() && !mit->second.empty()) {
            const std::string row = markerRow(
                mit->second, d.buckets(), display_stride);
            out << "  |" << row << "|  x=fault r=recovery "
                << "!=violation\n";
        }
        // SLO alerts get their own aligned row so a raise is
        // never masked by a violation in the same bucket.
        if (mit != markers.end() && !mit->second.alerts.empty()) {
            std::string row(d.buckets(), ' ');
            for (int e : mit->second.alerts) {
                const auto b = static_cast<std::size_t>(
                    e / display_stride);
                if (b < row.size())
                    row[b] = 'A';
            }
            out << "  |" << row << "|  A=alert_raise\n";
        }
    }
    if (stats.unknownEvents > 0) {
        out << "\n(" << stats.unknownEvents
            << " unknown event(s) ignored";
        for (const auto &[type, count] : stats.unknownTypes)
            out << "; " << type << " x" << count;
        out << ")\n";
    }
    return 0;
}

} // namespace ahq::cli
