/**
 * @file
 * `ahq alerts` — list the SLO burn-rate alert transitions of a
 * JSONL trace produced with --trace --slo: the `alert_raise` /
 * `alert_clear` timeline in trace order plus per-(scenario, app)
 * totals. Alert events are never trace-sampled (the same contract
 * as `violation`), so the timeline here is complete whatever
 * --trace-sample produced the file.
 */

#include "cli.hh"

#include "obs/scope.hh"
#include "report/table.hh"
#include "trace_fold.hh"

namespace ahq::cli
{

int
runAlerts(const std::vector<std::string> &args, std::ostream &out,
          std::ostream &err)
{
    TraceFilter filter;
    std::string format;
    std::string path;
    try {
        Flags flags("alerts");
        addAnalysisFlags(flags, filter, format, {"text", "csv", "json"});
        path = onePath(flags.parse(args));
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n"
            << "usage: ahq alerts [--scenario=TAG] [--app=NAME] "
               "[--format=text|csv|json] <file.jsonl>\n";
        return 2;
    }

    AlertFold alerts(/*transitions=*/true);
    if (const int rc = foldTrace(path, {.alerts = &alerts}, err, filter))
        return rc;
    const auto &rows = alerts.rows;
    if (rows.empty()) {
        err << "error: " << path
            << ": no matching alert events (produce them with "
               "--trace --slo)\n";
        return 1;
    }

    const Columns columns{"scenario",  "app",       "event",   "epoch",
                          "burn_fast", "burn_slow", "duration"};
    const auto cells = [](const AlertFold::Transition &r) {
        return std::vector<Cell>{r.scenario, r.app,
                                 r.raise ? "raise" : "clear", r.epoch,
                                 r.burnFast, r.burnSlow,
                                 r.raise ? Cell() : Cell(r.duration)};
    };
    if (format == "csv") {
        csvHeader(out, columns);
        for (const auto &r : rows)
            csvRow(out, cells(r));
        return 0;
    }
    if (format == "json") {
        std::string b = "{\"v\":1,\"tool\":\"ahq alerts\",\"alerts\":[";
        for (const auto &r : rows)
            jsonRow(b, columns, cells(r));
        b += "],\"totals\":[";
        for (const auto &[key, t] : alerts.totals) {
            jsonRow(b,
                    {"scenario", "app", "raises", "clears", "active_at_end",
                     "worst_burn_fast"},
                    {key.first, key.second, t.raises, t.clears,
                     t.raises - t.clears, t.worstBurn});
        }
        out << b << "]}\n";
        return 0;
    }

    out << path << ": " << rows.size()
        << " alert transition(s) (schema v" << obs::kSchemaVersion
        << ")\n";
    report::TextTable t({"scenario", "app", "event", "epoch",
                         "burn fast", "burn slow", "duration"});
    for (const auto &r : rows) {
        t.addRow({scenarioLabel(r.scenario), r.app,
                  r.raise ? "RAISE" : "clear", std::to_string(r.epoch),
                  report::TextTable::num(r.burnFast),
                  report::TextTable::num(r.burnSlow),
                  r.raise ? "-" : std::to_string(r.duration)});
    }
    t.print(out);
    report::TextTable tt({"scenario", "app", "raises", "clears",
                          "active at end", "worst burn"});
    for (const auto &[key, agg] : alerts.totals) {
        tt.addRow({scenarioLabel(key.first), key.second,
                   std::to_string(agg.raises), std::to_string(agg.clears),
                   std::to_string(agg.raises - agg.clears),
                   report::TextTable::num(agg.worstBurn)});
    }
    out << "totals:\n";
    tt.print(out);
    return 0;
}

} // namespace ahq::cli
