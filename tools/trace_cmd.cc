/**
 * @file
 * `ahq trace` — summarise a JSONL decision trace produced with
 * --trace / AHQ_TRACE: per-scenario epoch counts and E_S timeline,
 * scheduler decision totals (adjustments, rollbacks, bans) and the
 * per-app remaining-tolerance summary from ARQ decision events.
 */

#include "cli.hh"

#include "obs/scope.hh"
#include "report/ascii_chart.hh"
#include "report/table.hh"
#include "trace_fold.hh"

namespace ahq::cli
{

int
runTrace(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    std::string path;
    try {
        path = onePath(Flags("trace").parse(args));
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n"
            << "usage: ahq trace <file.jsonl>\n";
        return 2;
    }

    // Everything is folded before anything is printed, so a
    // malformed line never leaves partial output.
    RunFold fold(RunFold::Rows::Simulated);
    obs::TraceReadStats stats;
    if (const int rc = foldTrace(path, {.runs = &fold, .stats = &stats}, err))
        return rc;
    if (stats.events == 0) {
        err << "error: " << path << ": empty trace\n";
        return 1;
    }
    const auto &runs = fold.runs;

    long long total_epochs = 0;
    for (const auto &[tag, s] : runs)
        total_epochs += s.epochs;
    out << path << ": " << stats.events << " events, "
        << runs.size() << " scenario(s), " << total_epochs
        << " epochs (schema v" << obs::kSchemaVersion << ")\n";
    if (stats.unknownEvents > 0) {
        // Foreign / future-schema event types must never vanish
        // silently — name them (the reader also bumps the
        // reader.unknown_events metric).
        out << "unknown event types (" << stats.unknownEvents
            << " event(s) outside the schema taxonomy):";
        for (const auto &[type, count] : stats.unknownTypes)
            out << " " << type << " x" << count;
        out << "\n";
    }

    // Per-scenario run summary and decision totals.
    report::TextTable t({"scenario", "scheduler", "epochs",
                         "mean E_S", "final E_S", "adjustments",
                         "rollbacks", "bans"});
    for (const auto &[tag, s] : runs) {
        t.addRow({scenarioLabel(tag),
                  s.scheduler.empty() ? "-" : s.scheduler,
                  std::to_string(s.epochs),
                  s.epochs > 0 ? report::TextTable::num(s.meanEs()) : "-",
                  s.epochs > 0 ? report::TextTable::num(s.finalEs) : "-",
                  std::to_string(s.adjustments),
                  std::to_string(s.rollbacks),
                  std::to_string(s.bans)});
    }
    t.print(out);

    // Telemetry events beyond the decision stream (previously
    // read but never surfaced).
    bool any_telemetry = false;
    for (const auto &[tag, s] : runs) {
        any_telemetry = any_telemetry || s.faults > 0 ||
            s.recoveries > 0 || s.violations > 0 || s.spanEvents > 0 ||
            s.seriesEvents > 0;
    }
    if (any_telemetry) {
        report::TextTable tt({"scenario", "faults", "recoveries",
                              "violations", "spans", "series"});
        for (const auto &[tag, s] : runs) {
            tt.addRow({scenarioLabel(tag), std::to_string(s.faults),
                       std::to_string(s.recoveries),
                       std::to_string(s.violations),
                       std::to_string(s.spanEvents),
                       std::to_string(s.seriesEvents)});
        }
        out << "telemetry events:\n";
        tt.print(out);
    }

    // E_S timeline (the first few scenarios with epoch events keep
    // the chart readable; the table above covers the rest).
    std::vector<report::Series> series;
    for (const auto &[tag, s] : runs) {
        if (s.ts.empty() || series.size() >= 6)
            continue;
        series.push_back(
            {tag.empty() ? "E_S" : tag, s.ts, s.es});
    }
    if (!series.empty()) {
        report::lineChart(out, series, 72, 16,
                          "E_S per epoch (x = time s)");
    }

    // Per-app remaining tolerance, from ARQ decision events.
    bool any_ret = false;
    for (const auto &[tag, s] : runs)
        any_ret = any_ret || !s.retByApp.empty();
    if (any_ret) {
        report::TextTable rt({"scenario", "app", "mean ReT",
                              "min ReT", "mean Q"});
        for (const auto &[tag, s] : runs) {
            for (const auto &[app, r] : s.retByApp) {
                rt.addRow({scenarioLabel(tag),
                           "app" + std::to_string(app),
                           report::TextTable::num(
                               r.sumRet / r.samples),
                           report::TextTable::num(r.minRet),
                           report::TextTable::num(
                               r.sumQ / r.samples)});
            }
        }
        out << "remaining tolerance (ARQ decisions):\n";
        rt.print(out);
    }

    // Read-stats footer: what the streaming reader actually saw,
    // including lines that produced no event at all.
    out << "reader: " << stats.events << " event(s) parsed, "
        << stats.skippedLines << " blank line(s) skipped, "
        << stats.unknownEvents << " outside the schema taxonomy\n";
    return 0;
}

} // namespace ahq::cli
