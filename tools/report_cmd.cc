/**
 * @file
 * `ahq report` — fold decision traces and BENCH_*.json
 * perf-trajectory files from one or more runs into a single JSON
 * or Markdown summary — and `ahq bench-diff`, the regression gate
 * comparing two BENCH_*.json files.
 */

#include "cli.hh"

#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>
#include <vector>

#include "report/table.hh"
#include "trace_fold.hh"

namespace ahq::cli
{

namespace
{

/** One report row: a scenario of one input file. */
struct ReportRun
{
    std::string file;
    std::string scenario;
    RunFold::Run run;
    AlertFold::Totals alerts;
};

void
emitJson(std::ostream &out, const std::vector<ReportRun> &runs,
         const std::vector<BenchRow> &bench,
         const std::vector<ExperimentEnd> &experiments)
{
    std::string b = "{\"tool\":\"ahq report\",\"runs\":[";
    for (const ReportRun &r : runs) {
        const auto &s = r.run;
        const BucketSummary e = s.esSeries.value_or(BucketSummary{});
        const auto es = [&](double v) { return s.esSeries ? Cell(v) : Cell(); };
        jsonRow(b,
                {"file", "scenario", "scheduler", "epochs", "mean_e_s",
                 "final_e_s", "decisions", "es_min", "es_max", "es_p99",
                 "spans", "faults", "alert_raises", "alert_clears",
                 "worst_burn"},
                {r.file, r.scenario, s.scheduler, s.epochs, s.meanEs(),
                 s.finalEs, s.decisions, es(e.min), es(e.max), es(e.p99),
                 s.spans, s.faults, r.alerts.raises, r.alerts.clears,
                 r.alerts.worstBurn});
    }
    b += "],\"experiments\":[";
    for (const ExperimentEnd &e : experiments) {
        jsonRow(b,
                {"file", "scenario", "verdict", "blocks_a", "blocks_b",
                 "policy_swaps", "es_mixed_est", "es_mixed_lo",
                 "es_mixed_hi", "p95_mixed_est", "viol_mixed_est"},
                {e.file, e.scenario, e.verdict, e.blocksA, e.blocksB,
                 e.policySwaps, e.esMixedEst, e.esMixedLo, e.esMixedHi,
                 e.p95MixedEst, e.violMixedEst});
    }
    b += "],\"bench\":[";
    for (const BenchRow &e : bench) {
        jsonRow(b,
                {"file", "benchmark", "wall_ms", "throughput", "unit",
                 "config", "git_rev"},
                {e.file, e.benchmark, e.wallMs, e.throughput, e.unit,
                 e.config, e.gitRev});
    }
    out << b << "]}\n";
}

/** A "## title" heading and a markdown table's header. */
void
mdHeader(std::ostream &out, const char *title,
         const std::vector<std::string> &columns)
{
    out << "\n## " << title << "\n\n|";
    for (const auto &c : columns)
        out << " " << c << " |";
    out << "\n";
    for (std::size_t i = 0; i < columns.size(); ++i)
        out << "|---";
    out << "|\n";
}

/** One markdown table row. */
void
mdRow(std::ostream &out, const std::vector<std::string> &cells)
{
    out << "|";
    for (const auto &c : cells)
        out << " " << c << " |";
    out << "\n";
}

void
emitMarkdown(std::ostream &out, const std::vector<ReportRun> &runs,
             const std::vector<BenchRow> &bench,
             const std::vector<ExperimentEnd> &experiments)
{
    using report::TextTable;
    using std::to_string;
    const auto orDash = [](const std::string &s) {
        return s.empty() ? "-" : s;
    };
    out << "# ahq report\n";
    if (!runs.empty()) {
        mdHeader(out, "Runs",
                 {"file", "scenario", "scheduler", "epochs", "mean E_S",
                  "final E_S", "E_S min", "E_S max", "E_S p99", "decisions",
                  "spans", "faults", "alerts", "worst burn"});
    }
    for (const ReportRun &r : runs) {
        const auto &s = r.run;
        const BucketSummary e = s.esSeries.value_or(BucketSummary{});
        const auto es = [&](double v) {
            return s.esSeries ? TextTable::num(v) : "-";
        };
        mdRow(out, {r.file, scenarioLabel(r.scenario), orDash(s.scheduler),
                    to_string(s.epochs), TextTable::num(s.meanEs()),
                    TextTable::num(s.finalEs), es(e.min), es(e.max),
                    es(e.p99), to_string(s.decisions), to_string(s.spans),
                    to_string(s.faults),
                    to_string(r.alerts.raises) + "/" +
                        to_string(r.alerts.clears),
                    r.alerts.raises > 0 ? TextTable::num(r.alerts.worstBurn)
                                        : "-"});
    }
    if (!experiments.empty()) {
        mdHeader(out, "Experiments",
                 {"file", "scenario", "verdict", "dE_S mixed [95% CI]",
                  "dp95 (ms)", "dviol rate", "blocks", "swaps"});
    }
    for (const ExperimentEnd &e : experiments) {
        mdRow(out, {e.file, scenarioLabel(e.scenario), e.verdict,
                    TextTable::num(e.esMixedEst) + " [" +
                        TextTable::num(e.esMixedLo) + ", " +
                        TextTable::num(e.esMixedHi) + "]",
                    TextTable::num(e.p95MixedEst),
                    TextTable::num(e.violMixedEst),
                    to_string(e.blocksA) + "+" + to_string(e.blocksB),
                    to_string(e.policySwaps)});
    }
    if (!bench.empty()) {
        mdHeader(out, "Benchmarks",
                 {"file", "benchmark", "wall (ms)", "throughput", "unit",
                  "config", "git rev"});
    }
    for (const BenchRow &e : bench) {
        mdRow(out, {e.file, e.benchmark, TextTable::num(e.wallMs),
                    TextTable::num(e.throughput), orDash(e.unit),
                    orDash(e.config), orDash(e.gitRev)});
    }
    if (runs.empty() && bench.empty() && experiments.empty())
        out << "\n(no runs or benchmarks in the inputs)\n";
}

/**
 * Fill `entries` with name -> last (wall_ms, throughput) of a bench
 * file and `fingerprint` with its last row's machine fingerprint
 * ("" when it carries none); false, with the error on `err`, when
 * `path` is not one.
 */
bool
loadBenchFile(const std::string &path,
              std::map<std::string, std::pair<double, double>> &entries,
              std::string &fingerprint, std::ostream &err)
{
    std::vector<BenchRow> rows;
    if (foldTrace(path, {.bench = &rows, .benchOnly = true}, err) != 0)
        return false;
    if (rows.empty()) {
        err << "error: " << path << ": no bench entries\n";
        return false;
    }
    for (const BenchRow &r : rows)
        entries[r.benchmark] = {r.wallMs, r.throughput};
    fingerprint = rows.back().fingerprint;
    return true;
}

} // namespace

int
runReport(const std::vector<std::string> &args, std::ostream &out,
          std::ostream &err)
{
    std::string format = "json";
    std::string outPath;
    std::vector<std::string> inputs;
    try {
        const auto set_out = [&](const std::string &v) { outPath = v; };
        inputs = Flags("report")
                     .value("--format",
                            [&](const std::string &v) {
                                format = oneOf(v, "--format",
                                               {"json", "md"});
                            })
                     .value("-o", set_out)
                     .value("--output", set_out)
                     .parse(args);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }
    if (inputs.empty()) {
        err << "usage: ahq report [--format=json|md] [-o FILE] "
               "<trace.jsonl|BENCH_*.json>...\n";
        return 2;
    }

    std::vector<ReportRun> runs;
    std::vector<BenchRow> bench;
    std::vector<ExperimentEnd> experiments;
    for (const auto &path : inputs) {
        RunFold fold(RunFold::Rows::Every);
        AlertFold alerts(/*transitions=*/false);
        if (const int rc = foldTrace(path,
                                     {.runs = &fold,
                                      .alerts = &alerts,
                                      .experiments = &experiments,
                                      .bench = &bench},
                                     err))
            return rc;
        for (const auto &[tag, run] : fold.runs)
            runs.push_back({path, tag, run, alerts.scenarioTotals(tag)});
    }

    std::ofstream file;
    if (!outPath.empty()) {
        file.open(outPath);
        if (!file.is_open()) {
            err << "error: cannot write: " << outPath << "\n";
            return 1;
        }
    }
    std::ostream &dst = outPath.empty() ? out : file;
    if (format == "json")
        emitJson(dst, runs, bench, experiments);
    else
        emitMarkdown(dst, runs, bench, experiments);
    if (!outPath.empty())
        out << "report written to " << outPath << "\n";
    return 0;
}

int
runBenchDiff(const std::vector<std::string> &args,
             std::ostream &out, std::ostream &err)
{
    double threshold = 0.10;
    std::string baseline;
    std::vector<std::string> files;
    try {
        files = Flags("bench-diff")
                    .value("--baseline",
                           [&](const std::string &v) { baseline = v; })
                    .value("--threshold",
                           [&](const std::string &v) {
                               threshold = parseNumber(v, "--threshold");
                               if (threshold <= 0.0 || threshold >= 1.0) {
                                   throw std::invalid_argument(
                                       "--threshold must be a fraction "
                                       "in (0, 1), got '" + v + "'");
                               }
                           })
                    .parse(args);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }
    // Either the classic two-positional form, or --baseline plus
    // one positional (the fresh run) — the CI shape, where the
    // baseline is a committed file.
    if (!baseline.empty()) {
        if (files.size() != 1) {
            err << "error: --baseline takes exactly one "
                   "positional file (the new run)\n";
            return 2;
        }
        files.insert(files.begin(), baseline);
    }
    if (files.size() != 2) {
        err << "usage: ahq bench-diff [--threshold=0.10] "
               "[--baseline <old.json>] <old.json> <new.json>\n"
               "       (with --baseline, pass only <new.json>)\n";
        return 2;
    }

    // Unreadable input exits 2, not the fold's 1: perf_gate.cmake
    // retries a 1 as a regression and stops on a 2.
    std::map<std::string, std::pair<double, double>> oldB, newB;
    std::string oldFp, newFp;
    if (!loadBenchFile(files[0], oldB, oldFp, err) ||
        !loadBenchFile(files[1], newB, newFp, err))
        return 2;
    // Numbers from another machine or build type are not comparable
    // at face value; say so before the table that compares them.
    if (newFp != oldFp) {
        const auto side = [](const std::string &fp) {
            return fp.empty() ? std::string("(none)") : '"' + fp + '"';
        };
        out << "fingerprint: baseline " << side(oldFp) << " vs new "
            << side(newFp) << "\n";
    }

    report::TextTable t({"benchmark", "wall old (ms)",
                         "wall new (ms)", "wall delta%",
                         "thru old", "thru new", "speedup",
                         "status"});
    int regressions = 0;
    int compared = 0;
    double speedupProduct = 1.0;
    int speedups = 0;
    for (const auto &[name, o] : oldB) {
        const auto it = newB.find(name);
        if (it == newB.end()) {
            t.addRow({name, report::TextTable::num(o.first), "-",
                      "-", report::TextTable::num(o.second), "-",
                      "-", "missing"});
            continue;
        }
        ++compared;
        const auto &n = it->second;
        const double wallPct =
            o.first > 0.0
                ? 100.0 * (n.first - o.first) / o.first
                : 0.0;
        // Per-benchmark speedup ratio: >1 means the new run is
        // faster. Throughput is primary (what baselines track);
        // wall-time inverse fills in for rows without one.
        double speedup = 0.0;
        if (o.second > 0.0 && n.second > 0.0)
            speedup = n.second / o.second;
        else if (o.first > 0.0 && n.first > 0.0)
            speedup = o.first / n.first;
        if (speedup > 0.0) {
            speedupProduct *= speedup;
            ++speedups;
        }
        // Slower wall OR lower throughput beyond the threshold
        // flags the row (each metric is only judged when both
        // files carry it).
        const bool wallBad = o.first > 0.0 && n.first > 0.0 &&
            n.first > o.first * (1.0 + threshold);
        const bool thruBad = o.second > 0.0 && n.second > 0.0 &&
            n.second < o.second * (1.0 - threshold);
        if (wallBad || thruBad)
            ++regressions;
        t.addRow({name, report::TextTable::num(o.first),
                  report::TextTable::num(n.first),
                  report::TextTable::num(wallPct, 1),
                  report::TextTable::num(o.second),
                  report::TextTable::num(n.second),
                  speedup > 0.0
                      ? report::TextTable::num(speedup, 2) + "x"
                      : "-",
                  wallBad || thruBad ? "REGRESSION" : "ok"});
    }
    for (const auto &[name, n] : newB) {
        if (oldB.find(name) == oldB.end()) {
            t.addRow({name, "-",
                      report::TextTable::num(n.first), "-", "-",
                      report::TextTable::num(n.second), "-",
                      "new"});
        }
    }
    t.print(out);
    out << compared << " benchmark(s) compared, " << regressions
        << " regression(s) beyond "
        << report::TextTable::num(threshold * 100.0, 0) << "%";
    if (speedups > 0) {
        // Geometric mean: the one mean that is symmetric under
        // which file is the baseline of a ratio.
        out << ", geomean speedup "
            << report::TextTable::num(
                   std::pow(speedupProduct,
                            1.0 / static_cast<double>(speedups)),
                   2)
            << "x";
    }
    out << "\n";
    return regressions > 0 ? 1 : 0;
}

} // namespace ahq::cli
