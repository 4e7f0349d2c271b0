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
#include <sstream>

#include "obs/scope.hh"
#include "report/table.hh"
#include "trace_fold.hh"

namespace ahq::cli
{

namespace
{

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
    TraceFilter filter;
    std::string format;
    SeriesFold fold;
    int width = 64;
    std::string path;
    try {
        Flags flags("timeline");
        addAnalysisFlags(flags, filter, format, {"text", "csv", "json"})
            .reject("--app")
            .value("--series",
                   [&](const std::string &v) {
                       std::stringstream ss(v);
                       for (std::string name; std::getline(ss, name, ',');)
                           if (!name.empty())
                               fold.wanted.insert(name);
                   })
            .value("--width", [&](const std::string &v) {
                width = parseCount(v, "--width", 8, 4096);
            });
        path = onePath(flags.parse(args));
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n"
            << "usage: ahq timeline [--series=a,b] "
               "[--scenario=TAG] [--format=text|csv|json] "
               "[--width=N] <file.jsonl>\n";
        return 2;
    }

    // One pass, everything folded before anything is printed.
    obs::TraceReadStats stats;
    if (const int rc =
            foldTrace(path, {.series = &fold, .stats = &stats}, err, filter))
        return rc;
    const auto &data = fold.series;
    const auto &markers = fold.markers;
    if (data.empty()) {
        err << "error: " << path
            << ": no matching series events (produce them with "
               "--trace; series land at the end of the trace)\n";
        return 1;
    }

    if (format != "text") {
        if (format == "csv") {
            csvHeader(out, {"scenario", "series", "bucket", "epoch_lo",
                            "stride", "count", "min", "max", "mean"});
            for (const auto &[key, d] : data) {
                for (std::size_t i = 0; i < d.buckets(); ++i) {
                    const auto b = static_cast<long long>(i);
                    const bool any = d.n[i] > 0;
                    csvRow(out, {key.first, key.second, b, b * d.stride,
                                 d.stride, static_cast<long long>(d.n[i]),
                                 any ? Cell(d.min[i]) : Cell(),
                                 any ? Cell(d.max[i]) : Cell(),
                                 any ? Cell(d.sum[i] / d.n[i]) : Cell()});
                }
            }
        } else {
            std::string buf = "{\"v\":1,\"series\":[";
            for (const auto &[key, d] : data) {
                jsonRow(buf,
                        {"scenario", "series", "stride", "epochs", "points",
                         "n", "min", "max", "sum"},
                        {key.first, key.second, d.stride, d.epochs, d.points,
                         d.n, d.min, d.max, d.sum});
            }
            buf += "],\"markers\":[";
            using Kind = std::pair<const std::set<int> *, const char *>;
            for (const auto &[scenario, m] : markers) {
                for (const auto &[epochs, kind] :
                     {Kind{&m.faults, "fault"},
                      Kind{&m.recoveries, "recovery"},
                      Kind{&m.violations, "violation"},
                      Kind{&m.alerts, "alert_raise"}}) {
                    for (const int e : *epochs)
                        jsonRow(buf, {"scenario", "type", "epoch"},
                                {scenario, kind, e});
                }
            }
            out << buf << "]}\n";
        }
        if (stats.unknownEvents > 0) {
            err << "note: " << stats.unknownEvents
                << " unknown event(s) ignored\n";
        }
        return 0;
    }

    // Text mode: aligned sparklines, one block per
    // (scenario, series), sorted — deterministic whatever order
    // the events appeared in.
    out << path << ": " << data.size() << " series (schema v"
        << obs::kSchemaVersion << ")\n";
    for (const auto &[key, original] : data) {
        const BucketSummary s = summarize(original);
        SeriesData d = original;
        const long long display_stride = foldToWidth(d, width);

        out << "\n" << scenarioLabel(key.first) << " :: " << key.second
            << "  (epochs=" << d.epochs << ", stride=" << original.stride
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
