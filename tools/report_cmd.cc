/**
 * @file
 * `ahq report` — fold decision traces and BENCH_*.json
 * perf-trajectory files from one or more runs into a single JSON
 * or Markdown summary — and `ahq bench-diff`, the regression gate
 * comparing two BENCH_*.json files (also built standalone as
 * tools/bench_diff).
 */

#include "cli.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <vector>

#include "obs/json.hh"
#include "obs/trace_reader.hh"
#include "report/table.hh"

namespace ahq::cli
{

namespace
{

/** Aggregates for one scenario within one trace file. */
struct RunSummary
{
    std::string file;
    std::string scenario;
    std::string scheduler;
    long long epochs = 0;
    double sumEs = 0.0;
    double finalEs = 0.0;
    long long decisions = 0;
    long long spans = 0;
    long long faults = 0;

    /**
     * Folded E_S summary from the run's `series` event (the
     * TimeSeriesRegistry flush), when the trace carries one. p99
     * is the count-weighted 99th percentile of per-bucket maxima
     * — an upper estimate that survives downsampling, since
     * folding preserves maxima exactly.
     */
    bool hasSeries = false;
    double esMin = 0.0;
    double esMax = 0.0;
    double esP99 = 0.0;

    /** SLO alert accounting from alert_raise / alert_clear. */
    long long alertRaises = 0;
    long long alertClears = 0;

    /** Worst fast-window burn rate seen at any transition. */
    double worstBurn = 0.0;
};

/** One experiment_end event (an `ahq experiment run` outcome). */
struct ExperimentEntry
{
    std::string file;
    std::string scenario;
    std::string verdict;
    long long blocksA = 0;
    long long blocksB = 0;
    long long policySwaps = 0;
    double esMixedEst = 0.0;
    double esMixedLo = 0.0;
    double esMixedHi = 0.0;
    double p95MixedEst = 0.0;
    double violMixedEst = 0.0;
};

/** One BENCH_*.json line. */
struct BenchEntry
{
    std::string file;
    std::string benchmark;
    double wallMs = 0.0;
    double throughput = 0.0;
    std::string unit;
    std::string config;
    std::string gitRev;
};

bool
isDecisionType(const std::string &type)
{
    return type.size() > 9 &&
        type.compare(type.size() - 9, 9, "_decision") == 0;
}

/** Fold an `e_s` series event's buckets into the run summary. */
void
foldEsSeries(RunSummary &s, const obs::TraceEvent &ev)
{
    const auto n = ev.nums("n");
    const auto mins = ev.nums("min");
    const auto maxs = ev.nums("max");
    const std::size_t len =
        std::min({n.size(), mins.size(), maxs.size()});
    std::vector<std::pair<double, std::uint64_t>> maxima;
    std::uint64_t total = 0;
    bool any = false;
    for (std::size_t i = 0; i < len; ++i) {
        if (n[i] <= 0)
            continue; // empty bucket (rendered as zeros)
        const auto cnt = static_cast<std::uint64_t>(n[i]);
        if (!any) {
            s.esMin = mins[i];
            s.esMax = maxs[i];
            any = true;
        } else {
            s.esMin = std::min(s.esMin, mins[i]);
            s.esMax = std::max(s.esMax, maxs[i]);
        }
        maxima.emplace_back(maxs[i], cnt);
        total += cnt;
    }
    if (!any)
        return;
    s.hasSeries = true;
    std::sort(maxima.begin(), maxima.end());
    const double target = 0.99 * static_cast<double>(total);
    std::uint64_t seen = 0;
    s.esP99 = maxima.back().first;
    for (const auto &[mx, cnt] : maxima) {
        seen += cnt;
        if (static_cast<double>(seen) >= target) {
            s.esP99 = mx;
            break;
        }
    }
}

/** Scan one input file into the run / bench aggregates. */
void
scanInput(const std::string &path,
          std::vector<RunSummary> &runs,
          std::vector<BenchEntry> &bench,
          std::vector<ExperimentEntry> &experiments)
{
    // (file, scenario) -> index into runs, keeping file order.
    std::map<std::string, std::size_t> index;
    obs::forEachTraceFile(
        path, [&](const obs::TraceEvent &ev, int) {
            const std::string type = ev.type();
            if (type == "bench") {
                BenchEntry e;
                e.file = path;
                e.benchmark = ev.str("benchmark");
                e.wallMs = ev.num("wall_ms");
                e.throughput = ev.num("throughput");
                e.unit = ev.str("unit");
                e.config = ev.str("config");
                e.gitRev = ev.str("git_rev");
                bench.push_back(std::move(e));
                return;
            }
            if (type == "experiment_end") {
                ExperimentEntry e;
                e.file = path;
                e.scenario = ev.str("scenario");
                e.verdict = ev.str("verdict");
                e.blocksA =
                    static_cast<long long>(ev.num("blocks_a"));
                e.blocksB =
                    static_cast<long long>(ev.num("blocks_b"));
                e.policySwaps = static_cast<long long>(
                    ev.num("policy_swaps"));
                e.esMixedEst = ev.num("es_mixed_est");
                e.esMixedLo = ev.num("es_mixed_lo");
                e.esMixedHi = ev.num("es_mixed_hi");
                e.p95MixedEst = ev.num("p95_mixed_est");
                e.violMixedEst = ev.num("viol_mixed_est");
                experiments.push_back(std::move(e));
                return;
            }
            const std::string tag = ev.str("scenario");
            auto it = index.find(tag);
            if (it == index.end()) {
                it = index.emplace(tag, runs.size()).first;
                runs.push_back({path, tag, "", 0, 0.0, 0.0, 0,
                                0, 0});
            }
            RunSummary &s = runs[it->second];
            if (type == "run_start") {
                s.scheduler = ev.str("scheduler");
            } else if (type == "epoch") {
                ++s.epochs;
                s.finalEs = ev.num("e_s");
                s.sumEs += s.finalEs;
            } else if (type == "span") {
                s.spans +=
                    static_cast<long long>(ev.num("count"));
            } else if (type == "fault") {
                ++s.faults;
            } else if (type == "alert_raise" ||
                       type == "alert_clear") {
                if (type == "alert_raise")
                    ++s.alertRaises;
                else
                    ++s.alertClears;
                s.worstBurn = std::max(s.worstBurn,
                                       ev.num("burn_fast"));
            } else if (type == "series" &&
                       ev.str("series") == "e_s") {
                foldEsSeries(s, ev);
            } else if (isDecisionType(type)) {
                ++s.decisions;
            }
        });
}

void
emitJson(std::ostream &out, const std::vector<RunSummary> &runs,
         const std::vector<BenchEntry> &bench,
         const std::vector<ExperimentEntry> &experiments)
{
    std::string b;
    b += "{\"tool\":\"ahq report\",\"runs\":[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunSummary &s = runs[i];
        if (i > 0)
            b += ',';
        b += "{\"file\":";
        obs::json::appendString(b, s.file);
        b += ",\"scenario\":";
        obs::json::appendString(b, s.scenario);
        b += ",\"scheduler\":";
        obs::json::appendString(b, s.scheduler);
        b += ",\"epochs\":";
        obs::json::appendNumber(b, s.epochs);
        b += ",\"mean_e_s\":";
        obs::json::appendNumber(
            b, s.epochs > 0 ? s.sumEs / s.epochs : 0.0);
        b += ",\"final_e_s\":";
        obs::json::appendNumber(b, s.finalEs);
        b += ",\"decisions\":";
        obs::json::appendNumber(b, s.decisions);
        if (s.hasSeries) {
            b += ",\"es_min\":";
            obs::json::appendNumber(b, s.esMin);
            b += ",\"es_max\":";
            obs::json::appendNumber(b, s.esMax);
            b += ",\"es_p99\":";
            obs::json::appendNumber(b, s.esP99);
        }
        b += ",\"spans\":";
        obs::json::appendNumber(b, s.spans);
        b += ",\"faults\":";
        obs::json::appendNumber(b, s.faults);
        b += ",\"alert_raises\":";
        obs::json::appendNumber(b, s.alertRaises);
        b += ",\"alert_clears\":";
        obs::json::appendNumber(b, s.alertClears);
        b += ",\"worst_burn\":";
        obs::json::appendNumber(b, s.worstBurn);
        b += '}';
    }
    b += "],\"experiments\":[";
    for (std::size_t i = 0; i < experiments.size(); ++i) {
        const ExperimentEntry &e = experiments[i];
        if (i > 0)
            b += ',';
        b += "{\"file\":";
        obs::json::appendString(b, e.file);
        b += ",\"scenario\":";
        obs::json::appendString(b, e.scenario);
        b += ",\"verdict\":";
        obs::json::appendString(b, e.verdict);
        b += ",\"blocks_a\":";
        obs::json::appendNumber(b, e.blocksA);
        b += ",\"blocks_b\":";
        obs::json::appendNumber(b, e.blocksB);
        b += ",\"policy_swaps\":";
        obs::json::appendNumber(b, e.policySwaps);
        b += ",\"es_mixed_est\":";
        obs::json::appendNumber(b, e.esMixedEst);
        b += ",\"es_mixed_lo\":";
        obs::json::appendNumber(b, e.esMixedLo);
        b += ",\"es_mixed_hi\":";
        obs::json::appendNumber(b, e.esMixedHi);
        b += ",\"p95_mixed_est\":";
        obs::json::appendNumber(b, e.p95MixedEst);
        b += ",\"viol_mixed_est\":";
        obs::json::appendNumber(b, e.violMixedEst);
        b += '}';
    }
    b += "],\"bench\":[";
    for (std::size_t i = 0; i < bench.size(); ++i) {
        const BenchEntry &e = bench[i];
        if (i > 0)
            b += ',';
        b += "{\"file\":";
        obs::json::appendString(b, e.file);
        b += ",\"benchmark\":";
        obs::json::appendString(b, e.benchmark);
        b += ",\"wall_ms\":";
        obs::json::appendNumber(b, e.wallMs);
        b += ",\"throughput\":";
        obs::json::appendNumber(b, e.throughput);
        b += ",\"unit\":";
        obs::json::appendString(b, e.unit);
        b += ",\"config\":";
        obs::json::appendString(b, e.config);
        b += ",\"git_rev\":";
        obs::json::appendString(b, e.gitRev);
        b += '}';
    }
    b += "]}";
    out << b << "\n";
}

void
emitMarkdown(std::ostream &out,
             const std::vector<RunSummary> &runs,
             const std::vector<BenchEntry> &bench,
             const std::vector<ExperimentEntry> &experiments)
{
    out << "# ahq report\n";
    if (!runs.empty()) {
        out << "\n## Runs\n\n"
            << "| file | scenario | scheduler | epochs | mean E_S"
               " | final E_S | E_S min | E_S max | E_S p99 | "
               "decisions | spans | faults | alerts | worst burn "
               "|\n"
            << "|---|---|---|---|---|---|---|---|---|---|---|"
               "---|---|---|\n";
        for (const RunSummary &s : runs) {
            out << "| " << s.file << " | "
                << (s.scenario.empty() ? "(untagged)"
                                       : s.scenario)
                << " | " << (s.scheduler.empty() ? "-"
                                                 : s.scheduler)
                << " | " << s.epochs << " | "
                << report::TextTable::num(
                       s.epochs > 0 ? s.sumEs / s.epochs : 0.0)
                << " | " << report::TextTable::num(s.finalEs)
                << " | "
                << (s.hasSeries
                        ? report::TextTable::num(s.esMin) : "-")
                << " | "
                << (s.hasSeries
                        ? report::TextTable::num(s.esMax) : "-")
                << " | "
                << (s.hasSeries
                        ? report::TextTable::num(s.esP99) : "-")
                << " | " << s.decisions << " | " << s.spans
                << " | " << s.faults << " | " << s.alertRaises
                << "/" << s.alertClears << " | "
                << (s.alertRaises > 0
                        ? report::TextTable::num(s.worstBurn)
                        : "-")
                << " |\n";
        }
    }
    if (!experiments.empty()) {
        out << "\n## Experiments\n\n"
            << "| file | scenario | verdict | dE_S mixed "
               "[95% CI] | dp95 (ms) | dviol rate | blocks | "
               "swaps |\n"
            << "|---|---|---|---|---|---|---|---|\n";
        for (const ExperimentEntry &e : experiments) {
            out << "| " << e.file << " | "
                << (e.scenario.empty() ? "(untagged)"
                                       : e.scenario)
                << " | " << e.verdict << " | "
                << report::TextTable::num(e.esMixedEst) << " ["
                << report::TextTable::num(e.esMixedLo) << ", "
                << report::TextTable::num(e.esMixedHi) << "] | "
                << report::TextTable::num(e.p95MixedEst)
                << " | "
                << report::TextTable::num(e.violMixedEst)
                << " | " << e.blocksA << "+" << e.blocksB
                << " | " << e.policySwaps << " |\n";
        }
    }
    if (!bench.empty()) {
        out << "\n## Benchmarks\n\n"
            << "| file | benchmark | wall (ms) | throughput | "
               "unit | config | git rev |\n"
            << "|---|---|---|---|---|---|---|\n";
        for (const BenchEntry &e : bench) {
            out << "| " << e.file << " | " << e.benchmark
                << " | " << report::TextTable::num(e.wallMs)
                << " | "
                << report::TextTable::num(e.throughput) << " | "
                << (e.unit.empty() ? "-" : e.unit) << " | "
                << (e.config.empty() ? "-" : e.config) << " | "
                << (e.gitRev.empty() ? "-" : e.gitRev)
                << " |\n";
        }
    }
    if (runs.empty() && bench.empty() && experiments.empty())
        out << "\n(no runs or benchmarks in the inputs)\n";
}

/** name -> last (wall_ms, throughput) seen, for bench-diff. */
std::map<std::string, std::pair<double, double>>
loadBenchFile(const std::string &path)
{
    std::map<std::string, std::pair<double, double>> entries;
    obs::forEachTraceFile(
        path, [&](const obs::TraceEvent &ev, int) {
            if (ev.type() != "bench") {
                throw std::runtime_error(
                    "not a bench entry (type '" + ev.type() +
                    "'; expected BENCH_*.json from --json)");
            }
            entries[ev.str("benchmark")] = {
                ev.num("wall_ms"), ev.num("throughput")};
        });
    if (entries.empty())
        throw std::runtime_error(path + ": no bench entries");
    return entries;
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

    std::vector<RunSummary> runs;
    std::vector<BenchEntry> bench;
    std::vector<ExperimentEntry> experiments;
    try {
        for (const auto &path : inputs)
            scanInput(path, runs, bench, experiments);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
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

    std::map<std::string, std::pair<double, double>> oldB, newB;
    try {
        oldB = loadBenchFile(files[0]);
        newB = loadBenchFile(files[1]);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
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
