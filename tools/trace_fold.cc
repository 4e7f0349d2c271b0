/**
 * @file
 * The one trace fold (see trace_fold.hh): the schema check, the
 * filters, the typed folds over schema-v1 fields and the csv / json
 * row writer the analysis verbs render through.
 */

#include "trace_fold.hh"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hh"
#include "obs/scope.hh"

namespace ahq::cli
{

namespace
{

/** A `series` event's buckets, clipped to the arrays' common length. */
SeriesData
seriesData(const obs::TraceEvent &ev)
{
    SeriesData d;
    d.stride = std::max(1LL, static_cast<long long>(ev.num("stride", 1.0)));
    d.epochs = static_cast<long long>(ev.num("epochs"));
    d.points = static_cast<long long>(ev.num("points"));
    d.n = ev.nums("n");
    d.min = ev.nums("min");
    d.max = ev.nums("max");
    d.sum = ev.nums("sum");
    // Tolerate short arrays (foreign writers).
    const std::size_t len =
        std::min({d.n.size(), d.min.size(), d.max.size(), d.sum.size()});
    for (auto *v : {&d.n, &d.min, &d.max, &d.sum})
        v->resize(len);
    return d;
}

bool
isDecisionType(const std::string &type)
{
    return type.size() > 9 &&
        type.compare(type.size() - 9, 9, "_decision") == 0;
}

/** The events that open a RunFold::Rows::Simulated row. */
bool
isSimulatedType(const std::string &type)
{
    return type == "run_start" || type == "epoch" ||
        type == "arq_decision" || type == "parties_decision" ||
        type == "clite_decision" || type == "fault" ||
        type == "recovery" || type == "violation" || type == "span" ||
        type == "series";
}

/** A decision's moves, reverts, bans and ARQ ReT, for `trace`. */
void
addDecision(RunFold::Run &r, const obs::TraceEvent &ev,
            const std::string &type)
{
    const std::string action = ev.str("action");
    if (type == "arq_decision") {
        r.adjustments += action == "move";
        r.rollbacks += action == "rollback";
        r.bans += ev.has("ban_region");
        const auto apps = ev.nums("apps");
        const auto ret = ev.nums("ret");
        const auto q = ev.nums("q");
        for (std::size_t i = 0; i < apps.size() && i < ret.size(); ++i) {
            RunFold::AppRet &a = r.retByApp[static_cast<int>(apps[i])];
            ++a.samples;
            a.sumRet += ret[i];
            a.minRet = std::min(a.minRet, ret[i]);
            if (i < q.size())
                a.sumQ += q[i];
        }
    } else if (type == "parties_decision" || type == "clite_decision") {
        if (action == "move" || action == "upsize" ||
            action == "downsize_trial" || action == "sample" ||
            action == "exploit")
            ++r.adjustments;
        else if (action == "revert" || action == "re_explore")
            ++r.rollbacks;
    }
}

} // namespace

std::string
scenarioLabel(const std::string &tag)
{
    return tag.empty() ? "(untagged)" : tag;
}

BucketSummary
summarize(const SeriesData &d)
{
    BucketSummary s;
    double total_sum = 0.0;
    // (bucket max, bucket count), for the weighted p99 below.
    std::vector<std::pair<double, std::uint64_t>> maxima;
    for (std::size_t i = 0; i < d.buckets(); ++i) {
        if (d.n[i] <= 0)
            continue;
        const auto cnt = static_cast<std::uint64_t>(d.n[i]);
        s.min = maxima.empty() ? d.min[i] : std::min(s.min, d.min[i]);
        s.max = maxima.empty() ? d.max[i] : std::max(s.max, d.max[i]);
        total_sum += d.sum[i];
        s.count += cnt;
        maxima.emplace_back(d.max[i], cnt);
    }
    if (maxima.empty())
        return s;
    s.mean = total_sum / static_cast<double>(s.count);
    std::sort(maxima.begin(), maxima.end());
    const double target = 0.99 * static_cast<double>(s.count);
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

void
RunFold::add(const obs::TraceEvent &ev, const std::string &type,
             const std::string &scenario)
{
    if (rows == Rows::Simulated
            ? !isSimulatedType(type)
            : type == "bench" || type == "experiment_end")
        return;
    Run &r = runs[scenario];
    if (type == "run_start") {
        r.scheduler = ev.str("scheduler");
    } else if (type == "epoch") {
        ++r.epochs;
        r.finalEs = ev.num("e_s");
        r.sumEs += r.finalEs;
        if (rows == Rows::Simulated) {
            r.ts.push_back(ev.num("t"));
            r.es.push_back(r.finalEs);
        }
    } else if (isDecisionType(type)) {
        ++r.decisions;
        if (rows == Rows::Simulated)
            addDecision(r, ev, type);
    } else if (type == "fault") {
        ++r.faults;
    } else if (type == "recovery") {
        ++r.recoveries;
    } else if (type == "violation") {
        ++r.violations;
    } else if (type == "span") {
        ++r.spanEvents;
        r.spans += static_cast<long long>(ev.num("count"));
    } else if (type == "series") {
        ++r.seriesEvents;
        if (rows == Rows::Every && ev.str("series") == "e_s") {
            const BucketSummary s = summarize(seriesData(ev));
            if (s.count > 0)
                r.esSeries = s;
        }
    }
}

void
SpanFold::add(const obs::TraceEvent &ev, const std::string &scenario)
{
    ++events;
    Tree &tree = trees[scenario];
    SpanRow &row = tree.rows[ev.str("path")];
    row.count += static_cast<std::uint64_t>(ev.num("count"));
    if (ev.has("total_ms")) {
        tree.timed = true;
        row.totalMs += ev.num("total_ms");
        row.maxMs = std::max(row.maxMs, ev.num("max_ms"));
        // Merged events lose exact quantiles; the max of the
        // per-flush p99s is a sound upper bound.
        row.p99Ms = std::max(row.p99Ms, ev.num("p99_ms"));
    }
}

void
SeriesFold::add(const obs::TraceEvent &ev, const std::string &type,
                const std::string &scenario)
{
    if (type == "series") {
        const std::string name = ev.str("series");
        if (wanted.empty() || wanted.count(name) > 0)
            series[{scenario, name}] = seriesData(ev);
        return;
    }
    if (type != "fault" && type != "recovery" && type != "violation" &&
        type != "alert_raise")
        return;
    const int epoch = static_cast<int>(ev.num("epoch", -1.0));
    if (epoch < 0)
        return;
    Markers &m = markers[scenario];
    (type == "fault"         ? m.faults
     : type == "recovery"    ? m.recoveries
     : type == "alert_raise" ? m.alerts
                             : m.violations)
        .insert(epoch);
}

void
BlameFold::add(const obs::TraceEvent &ev)
{
    const std::string victim = ev.str("app");
    const auto culprits = ev.strs("culprits");
    const auto resources = ev.strs("resources");
    const auto shares = ev.nums("shares");
    const std::size_t len =
        std::min({culprits.size(), resources.size(), shares.size()});
    for (std::size_t i = 0; i < len; ++i)
        ledger.add(victim, culprits[i], resources[i], shares[i]);
    ++events;
}

void
AlertFold::add(const obs::TraceEvent &ev, bool raise,
               const std::string &scenario)
{
    Transition r;
    r.scenario = scenario;
    r.app = ev.str("app");
    r.raise = raise;
    r.epoch = static_cast<int>(ev.num("epoch"));
    r.burnFast = ev.num("burn_fast");
    r.burnSlow = ev.num("burn_slow");
    Totals &t = totals[{r.scenario, r.app}];
    if (raise) {
        ++t.raises;
    } else {
        ++t.clears;
        r.duration = static_cast<int>(ev.num("duration"));
    }
    t.worstBurn = std::max(t.worstBurn, r.burnFast);
    if (transitions)
        rows.push_back(std::move(r));
}

AlertFold::Totals
AlertFold::scenarioTotals(const std::string &scenario) const
{
    Totals sum;
    for (auto it = totals.lower_bound({scenario, ""});
         it != totals.end() && it->first.first == scenario; ++it) {
        sum.raises += it->second.raises;
        sum.clears += it->second.clears;
        sum.worstBurn = std::max(sum.worstBurn, it->second.worstBurn);
    }
    return sum;
}

namespace
{

/** One line of foldTrace(): the schema check, the filters, the folds. */
void
foldLine(const obs::TraceEvent &ev, const std::string &path,
         const TraceFolds &folds, const TraceFilter &filter)
{
    const std::string type = ev.type();
    if (type == "bench" && folds.bench != nullptr) {
        folds.bench->push_back(
            {path, ev.str("benchmark"), ev.num("wall_ms"),
             ev.num("throughput"), ev.str("unit"),
             ev.str("config"), ev.str("git_rev"),
             ev.str("fingerprint")});
        return;
    }
    if (folds.benchOnly) {
        throw std::runtime_error(
            "not a bench entry (type '" + type +
            "'; expected BENCH_*.json from --json)");
    }
    const int v = static_cast<int>(ev.num("v", -1.0));
    if (v != obs::kSchemaVersion) {
        throw std::runtime_error(
            "unsupported schema version " + std::to_string(v) +
            " (this build reads v" +
            std::to_string(obs::kSchemaVersion) + ")");
    }
    const std::string scenario = ev.str("scenario");
    if ((!filter.scenario.empty() && scenario != filter.scenario) ||
        (!filter.app.empty() && ev.str("app") != filter.app))
        return;
    if (folds.runs != nullptr)
        folds.runs->add(ev, type, scenario);
    if (folds.spans != nullptr && type == "span")
        folds.spans->add(ev, scenario);
    if (folds.series != nullptr)
        folds.series->add(ev, type, scenario);
    if (folds.blame != nullptr && type == "attribution")
        folds.blame->add(ev);
    if (folds.alerts != nullptr &&
        (type == "alert_raise" || type == "alert_clear"))
        folds.alerts->add(ev, type == "alert_raise", scenario);
    if (folds.blocks != nullptr && type == "experiment_block") {
        experiment::BlockStat s;
        s.node = static_cast<int>(ev.num("node"));
        s.block = static_cast<int>(ev.num("block"));
        s.arm = static_cast<int>(ev.num("arm"));
        s.epochs = static_cast<int>(ev.num("epochs"));
        s.meanES = ev.num("mean_es");
        s.meanP95Ms = ev.num("mean_p95_ms");
        s.meanQueue = ev.num("mean_queue");
        s.meanArrivalRate = ev.num("mean_arrival");
        s.startQueue = ev.num("start_queue");
        s.violRate = ev.num("viol_rate");
        folds.blocks->push_back(s);
    }
    if (folds.experiments != nullptr && type == "experiment_end") {
        folds.experiments->push_back(
            {path, scenario, ev.str("verdict"),
             static_cast<long long>(ev.num("blocks_a")),
             static_cast<long long>(ev.num("blocks_b")),
             static_cast<long long>(ev.num("policy_swaps")),
             ev.num("es_mixed_est"), ev.num("es_mixed_lo"),
             ev.num("es_mixed_hi"), ev.num("p95_mixed_est"),
             ev.num("viol_mixed_est")});
    }
}

} // namespace

int
foldTrace(const std::string &path, const TraceFolds &folds,
          std::ostream &err, const TraceFilter &filter)
{
    try {
        obs::forEachTraceFile(
            path,
            [&](const obs::TraceEvent &ev, int) {
                foldLine(ev, path, folds, filter);
            },
            folds.stats);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}

Flags &
addAnalysisFlags(Flags &flags, TraceFilter &filter, std::string &format,
                 const std::vector<std::string> &formats)
{
    format = formats.front();
    return flags
        .value("--scenario",
               [&](const std::string &v) { filter.scenario = v; })
        .value("--app", [&](const std::string &v) { filter.app = v; })
        .value("--format", [&format, formats](const std::string &v) {
            format = oneOf(v, "--format", formats);
        });
}

void
Cell::appendCsv(std::string &out) const
{
    if (kind_ == Kind::Text)
        out += text_;
    else if (kind_ == Kind::Int)
        obs::json::appendNumber(out, int_);
    else if (kind_ == Kind::Num)
        obs::json::appendNumber(out, num_);
}

void
Cell::appendJson(std::string &out) const
{
    if (kind_ == Kind::Text) {
        obs::json::appendString(out, text_);
    } else if (kind_ == Kind::Nums) {
        out.push_back('[');
        for (std::size_t i = 0; i < nums_->size(); ++i) {
            if (i > 0)
                out.push_back(',');
            obs::json::appendNumber(out, (*nums_)[i]);
        }
        out.push_back(']');
    } else {
        appendCsv(out);
    }
}

void
csvHeader(std::ostream &out, const Columns &columns)
{
    std::string line;
    for (const auto &c : columns) {
        if (!line.empty())
            line.push_back(',');
        line += c;
    }
    out << line << "\n";
}

void
csvRow(std::ostream &out, const std::vector<Cell> &cells)
{
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0)
            line.push_back(',');
        cells[i].appendCsv(line);
    }
    out << line << "\n";
}

void
jsonRow(std::string &buf, const Columns &columns,
        const std::vector<Cell> &cells)
{
    if (!buf.empty() && buf.back() != '[')
        buf.push_back(',');
    buf.push_back('{');
    bool first = true;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].blank())
            continue;
        if (!first)
            buf.push_back(',');
        first = false;
        obs::json::appendString(buf, columns[i]);
        buf.push_back(':');
        cells[i].appendJson(buf);
    }
    buf.push_back('}');
}

} // namespace ahq::cli
