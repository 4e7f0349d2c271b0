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

#include <algorithm>
#include <stdexcept>

#include "obs/attribution.hh"
#include "obs/json.hh"
#include "obs/scope.hh"
#include "obs/trace_reader.hh"
#include "report/table.hh"

namespace ahq::cli
{

namespace
{

struct WhyOptions
{
    std::string path;
    std::string scenario; // empty = all
    std::string app;      // victim filter; empty = all
    std::size_t top = 0;  // 0 = every row
    std::string format = "text"; // text | csv | json
};

WhyOptions
parseWhyArgs(const std::vector<std::string> &args)
{
    WhyOptions opt;
    opt.path = onePath(
        Flags("why")
            .value("--scenario",
                   [&](const std::string &v) { opt.scenario = v; })
            .value("--app", [&](const std::string &v) { opt.app = v; })
            .value("--top",
                   [&](const std::string &v) {
                       opt.top = static_cast<std::size_t>(
                           parseCount(v, "--top", 1));
                   })
            .value("--format",
                   [&](const std::string &v) {
                       opt.format =
                           oneOf(v, "--format", {"text", "csv", "json"});
                   })
            .parse(args));
    return opt;
}

} // namespace

int
runWhy(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    WhyOptions opt;
    try {
        opt = parseWhyArgs(args);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n"
            << "usage: ahq why [--scenario=TAG] [--app=NAME] "
               "[--top=N] [--format=text|csv|json] "
               "<file.jsonl>\n";
        return 2;
    }

    // Everything aggregates before anything prints, so a malformed
    // line never leaves partial output.
    obs::AttributionLedger ledger;
    long long events = 0;
    try {
        obs::forEachTraceFile(
            opt.path, [&](const obs::TraceEvent &ev, int) {
                const int v =
                    static_cast<int>(ev.num("v", -1.0));
                if (v != obs::kSchemaVersion) {
                    throw std::runtime_error(
                        "unsupported schema version " +
                        std::to_string(v) +
                        " (this build reads v" +
                        std::to_string(obs::kSchemaVersion) + ")");
                }
                if (ev.type() != "attribution")
                    return;
                if (!opt.scenario.empty() &&
                    ev.str("scenario") != opt.scenario)
                    return;
                const std::string victim = ev.str("app");
                if (!opt.app.empty() && victim != opt.app)
                    return;
                const auto culprits = ev.strs("culprits");
                const auto resources = ev.strs("resources");
                const auto shares = ev.nums("shares");
                const std::size_t len =
                    std::min({culprits.size(), resources.size(),
                              shares.size()});
                for (std::size_t i = 0; i < len; ++i)
                    ledger.add(victim, culprits[i], resources[i],
                               shares[i]);
                ++events;
            });
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
    if (events == 0) {
        err << "error: " << opt.path
            << ": no matching attribution events (produce them "
               "with --trace --attribute)\n";
        return 1;
    }

    auto rows = ledger.rows();
    std::stable_sort(rows.begin(), rows.end(),
                     [](const obs::AttributionRow &a,
                        const obs::AttributionRow &b) {
                         return a.share > b.share;
                     });
    if (opt.top > 0 && rows.size() > opt.top)
        rows.resize(opt.top);

    if (opt.format == "csv") {
        out << "victim,culprit,resource,share,epochs\n";
        for (const auto &r : rows) {
            std::string line = r.victim + "," + r.culprit + "," +
                r.resource + ",";
            obs::json::appendNumber(line, r.share);
            out << line << "," << r.epochs << "\n";
        }
        return 0;
    }

    if (opt.format == "json") {
        std::string b;
        b += "{\"v\":1,\"tool\":\"ahq why\",\"rows\":[";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (i > 0)
                b.push_back(',');
            b += "{\"victim\":";
            obs::json::appendString(b, rows[i].victim);
            b += ",\"culprit\":";
            obs::json::appendString(b, rows[i].culprit);
            b += ",\"resource\":";
            obs::json::appendString(b, rows[i].resource);
            b += ",\"share\":";
            obs::json::appendNumber(b, rows[i].share);
            b += ",\"epochs\":";
            obs::json::appendNumber(b, rows[i].epochs);
            b.push_back('}');
        }
        b += "]}";
        out << b << "\n";
        return 0;
    }

    out << opt.path << ": " << events
        << " attribution event(s) (schema v" << obs::kSchemaVersion
        << ")\n";
    printBlameTable(out, ledger, opt.top);
    // Per-victim totals: each victim's row sums its per-epoch R_i
    // over the attributed epochs — the conservation the ledger
    // carries by construction.
    std::vector<std::string> victims;
    for (const auto &r : ledger.rows()) {
        if (std::find(victims.begin(), victims.end(), r.victim) ==
            victims.end())
            victims.push_back(r.victim);
    }
    std::sort(victims.begin(), victims.end());
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
