/**
 * @file
 * `ahq why` — answer "who is hurting my LC app, and through which
 * resource" from a JSONL trace produced with --trace --attribute:
 * fold the per-epoch `attribution` events back into the
 * per-(victim, culprit, resource) blame ledger and print it sorted
 * by attributed interference share. Because every share is a slice
 * of the victim's per-epoch R_i (they sum to it exactly), the
 * table's units are "summed entropy interference" — directly
 * comparable across victims and culprits.
 */

#include "cli.hh"

#include <set>

#include "obs/scope.hh"
#include "report/table.hh"
#include "trace_fold.hh"

namespace ahq::cli
{

int
runWhy(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    TraceFilter filter;
    std::string format;
    std::size_t top = 0; // 0 = every row
    std::string path;
    try {
        Flags flags("why");
        addAnalysisFlags(flags, filter, format, {"text", "csv", "json"})
            .value("--top", [&](const std::string &v) {
                top = static_cast<std::size_t>(parseCount(v, "--top", 1));
            });
        path = onePath(flags.parse(args));
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n"
            << "usage: ahq why [--scenario=TAG] [--app=NAME] "
               "[--top=N] [--format=text|csv|json] "
               "<file.jsonl>\n";
        return 2;
    }

    BlameFold blame;
    if (const int rc = foldTrace(path, {.blame = &blame}, err, filter))
        return rc;
    if (blame.events == 0) {
        err << "error: " << path
            << ": no matching attribution events (produce them "
               "with --trace --attribute)\n";
        return 1;
    }
    const obs::AttributionLedger &ledger = blame.ledger;

    const Columns columns{"victim", "culprit", "resource", "share",
                          "epochs"};
    const auto cells = [](const obs::AttributionRow &r) {
        return std::vector<Cell>{r.victim, r.culprit, r.resource, r.share,
                                 r.epochs};
    };
    if (format == "csv") {
        csvHeader(out, columns);
        for (const auto &r : blameRows(ledger, top))
            csvRow(out, cells(r));
        return 0;
    }
    if (format == "json") {
        std::string b = "{\"v\":1,\"tool\":\"ahq why\",\"rows\":[";
        for (const auto &r : blameRows(ledger, top))
            jsonRow(b, columns, cells(r));
        out << b << "]}\n";
        return 0;
    }

    out << path << ": " << blame.events
        << " attribution event(s) (schema v" << obs::kSchemaVersion
        << ")\n";
    printBlameTable(out, ledger, top);
    // Per-victim totals: each victim's row sums its per-epoch R_i
    // over the attributed epochs — the conservation the ledger
    // carries by construction.
    std::set<std::string> victims;
    for (const auto &r : ledger.rows())
        victims.insert(r.victim);
    out << "per-victim summed R_i:";
    for (const auto &v : victims) {
        out << "  " << v << " = "
            << report::TextTable::num(ledger.victimTotal(v))
            << " (top blame: " << ledger.topBlame(v) << ")";
    }
    out << "\n";
    return 0;
}

} // namespace ahq::cli
