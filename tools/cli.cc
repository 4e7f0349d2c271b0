/**
 * @file
 * `ahq` CLI implementation.
 */

#include "cli.hh"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "apps/catalog.hh"
#include "cluster/oracle.hh"
#include "exec/scenario_runner.hh"
#include "report/csv.hh"
#include "report/table.hh"
#include "sched/registry.hh"

namespace ahq::cli
{

namespace
{

using sched::makeScheduler;

std::vector<std::string>
splitCsvRow(const std::string &line)
{
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ','))
        cells.push_back(cell);
    return cells;
}

/**
 * Parse a run verb whose positionals are app specs ("name=load" LC
 * entries and bare BE names). With `require_apps`, at least one
 * must be given; chaos falls back to a canonical colocation.
 */
SimulateOptions
parseAppRunArgs(Flags &flags, const std::vector<std::string> &args,
                bool require_apps)
{
    SimulateOptions opt;
    for (const auto &spec : parseRunFlags(flags, opt, args)) {
        const auto eq = spec.find('=');
        if (eq == std::string::npos) {
            opt.beApps.push_back(spec);
        } else {
            opt.lcApps.emplace_back(
                spec.substr(0, eq),
                parseNumber(spec.substr(eq + 1), "load"));
        }
    }
    if (require_apps && opt.lcApps.empty() && opt.beApps.empty()) {
        throw std::invalid_argument(
            "no applications given (expected app=load or be_app)");
    }
    return opt;
}

/** The colocation of opt's app specs: LC apps first, in order. */
std::vector<cluster::ColocatedApp>
colocation(const SimulateOptions &opt)
{
    std::vector<cluster::ColocatedApp> apps;
    for (const auto &[name, load] : opt.lcApps)
        apps.push_back(cluster::lcAt(apps::byName(name), load));
    for (const auto &name : opt.beApps)
        apps.push_back(cluster::be(apps::byName(name)));
    return apps;
}

} // namespace

SimulateOptions
parseSimulateArgs(const std::vector<std::string> &args)
{
    Flags flags("simulate");
    return parseAppRunArgs(flags, args, /*require_apps=*/true);
}

/**
 * Print a run's blame ledger, largest attributed share first (ties
 * broken by key order, so the table is deterministic). `top` = 0
 * prints every row.
 */
void
printBlameTable(std::ostream &out,
                const obs::AttributionLedger &ledger,
                std::size_t top)
{
    auto rows = ledger.rows();
    std::stable_sort(rows.begin(), rows.end(),
                     [](const obs::AttributionRow &a,
                        const obs::AttributionRow &b) {
                         return a.share > b.share;
                     });
    if (top > 0 && rows.size() > top)
        rows.resize(top);
    report::TextTable t({"victim", "culprit", "resource",
                         "sum R_i share", "epochs"});
    for (const auto &r : rows) {
        t.addRow({r.victim, r.culprit, r.resource,
                  report::TextTable::num(r.share),
                  std::to_string(r.epochs)});
    }
    t.print(out);
}

/** One-line alert accounting for a run with --slo. */
void
printSloSummary(std::ostream &out, const obs::SloSummary &slo)
{
    out << "slo: raises = " << slo.raises
        << ", clears = " << slo.clears
        << ", active at end = " << slo.activeAtEnd
        << ", alert epochs = " << slo.alertEpochs
        << ", worst burn = "
        << report::TextTable::num(slo.worstBurn) << "\n";
}

void
parseObservationsCsv(const std::string &path,
                     std::vector<core::LcObservation> &lc,
                     std::vector<core::BeObservation> &be)
{
    std::ifstream in(path);
    if (!in.is_open())
        throw std::runtime_error("cannot open: " + path);
    std::string line;
    int row = 0;
    while (std::getline(in, line)) {
        ++row;
        if (line.empty() || line[0] == '#')
            continue;
        const auto cells = splitCsvRow(line);
        if (cells.empty())
            continue;
        if (cells[0] == "kind")
            continue; // header
        const std::string where =
            path + ":" + std::to_string(row);
        if (cells[0] == "lc") {
            if (cells.size() < 5) {
                throw std::invalid_argument(
                    where + ": lc rows need 5 columns");
            }
            lc.push_back({parseNumber(cells[2], "ideal_ms"),
                          parseNumber(cells[3], "actual_ms"),
                          parseNumber(cells[4], "threshold_ms")});
        } else if (cells[0] == "be") {
            if (cells.size() < 4) {
                throw std::invalid_argument(
                    where + ": be rows need 4 columns");
            }
            be.push_back({parseNumber(cells[2], "ipc_solo"),
                          parseNumber(cells[3], "ipc_real")});
        } else {
            throw std::invalid_argument(
                where + ": kind must be 'lc' or 'be'");
        }
    }
    if (lc.empty() && be.empty())
        throw std::invalid_argument(path + ": no observations");
}

int
runEntropy(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err)
{
    if (args.size() != 1) {
        err << "usage: ahq entropy <observations.csv>\n";
        return 2;
    }
    std::vector<core::LcObservation> lc;
    std::vector<core::BeObservation> be;
    try {
        parseObservationsCsv(args[0], lc, be);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
    const auto rep = core::computeEntropy(lc, be);
    report::TextTable t({"app", "A_i", "R_i", "ReT_i", "Q_i"});
    for (std::size_t i = 0; i < rep.lcDetail.size(); ++i) {
        const auto &b = rep.lcDetail[i];
        t.addRow({"lc" + std::to_string(i),
                  report::TextTable::num(b.tolerance),
                  report::TextTable::num(b.interference),
                  report::TextTable::num(b.remainingTolerance),
                  report::TextTable::num(b.intolerable)});
    }
    t.print(out);
    out << "E_LC = " << rep.eLc << "\nE_BE = " << rep.eBe
        << "\nE_S  = " << rep.eS << "  (RI = 0.8)\nyield = "
        << rep.yieldValue << "\n";
    return 0;
}

int
runSimulate(const std::vector<std::string> &args, std::ostream &out,
            std::ostream &err)
{
    SimulateOptions opt;
    try {
        opt = parseSimulateArgs(args);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    try {
        auto apps = colocation(opt);
        RunContext ctx(opt, opt.strategy);
        // A single run owns its trace, so the span events may carry
        // wall-clock fields (they differ run to run, but there is no
        // --jobs fan-out here to stay identical across).
        ctx.config.obs.wallClock = true;
        cluster::Node node(ctx.machine(), std::move(apps));
        const auto sched = makeScheduler(opt.strategy);
        cluster::EpochSimulator sim(node, ctx.config);
        const auto res = sim.run(*sched);
        if (opt.profile)
            ctx.prof.flush(ctx.config.obs);

        report::TextTable t({"app", "kind", "tail (ms)",
                             "threshold", "IPC", "IPC solo"});
        for (int i = 0; i < node.numApps(); ++i) {
            const auto &p = node.profile(i);
            const auto ui = static_cast<std::size_t>(i);
            t.addRow({p.name, p.latencyCritical ? "LC" : "BE",
                      p.latencyCritical ?
                          report::TextTable::num(res.meanP95Ms[ui],
                                                 2) : "-",
                      p.latencyCritical ?
                          report::TextTable::num(
                              p.tailThresholdMs, 2) : "-",
                      p.latencyCritical ? "-" :
                          report::TextTable::num(res.meanIpc[ui],
                                                 2),
                      p.latencyCritical ? "-" :
                          report::TextTable::num(p.ipcSolo, 2)});
        }
        t.print(out);
        out << "strategy = " << opt.strategy
            << ", E_LC = " << res.meanELc
            << ", E_BE = " << res.meanEBe
            << ", E_S = " << res.meanES
            << ", yield = " << res.yieldValue
            << ", violations = " << res.violations << "\n";

        if (opt.attribute && !res.attribution.empty()) {
            out << "interference attribution (post-warmup sum of "
                   "per-epoch R_i shares):\n";
            printBlameTable(out, res.attribution, 12);
        } else if (opt.attribute) {
            out << "interference attribution: no LC app suffered "
                   "interference after warmup\n";
        }
        if (opt.slo)
            printSloSummary(out, res.slo);

        if (!opt.csvPath.empty()) {
            report::CsvWriter csv(
                opt.csvPath,
                {"time_s", "e_lc", "e_be", "e_s"});
            for (const auto &rec : res.epochs) {
                csv.addRow({report::TextTable::num(rec.time, 2),
                            report::TextTable::num(rec.entropy.eLc),
                            report::TextTable::num(rec.entropy.eBe),
                            report::TextTable::num(rec.entropy.eS)});
            }
            out << "timeline written to " << opt.csvPath << "\n";
        }
        ctx.finish(out, "profile (span tree):");
        return 0;
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

int
runOracle(const std::vector<std::string> &args, std::ostream &out,
          std::ostream &err)
{
    SimulateOptions opt;
    cluster::OracleConfig ocfg;
    try {
        Flags flags("oracle");
        flags.value("--waystep", [&](const std::string &v) {
            ocfg.wayStep = parseCount(v, "--waystep", 1);
        });
        opt = parseAppRunArgs(flags, args, /*require_apps=*/true);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    try {
        auto apps = colocation(opt);
        RunContext ctx(opt, "");
        cluster::Node node(ctx.machine(), std::move(apps));
        ocfg.tailPercentile = ctx.config.tailPercentile;
        ocfg.ri = ctx.config.ri;

        const auto iso = cluster::bestIsolatedPartition(node, ocfg);
        const auto hyb = cluster::bestHybridPartition(node, ocfg);

        out << "best fully-isolated partition (E_S = "
            << iso.report.eS << ", " << iso.evaluated
            << " layouts searched):\n"
            << iso.layout.toString();
        out << "best hybrid partition (E_S = " << hyb.report.eS
            << ", " << hyb.evaluated << " layouts searched):\n"
            << hyb.layout.toString();
        out << "sharing value (iso - hybrid E_S): "
            << iso.report.eS - hyb.report.eS << "\n";
        return 0;
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

int
runSweep(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    SimulateOptions opt;
    try {
        Flags flags("sweep");
        opt = parseAppRunArgs(flags, args, /*require_apps=*/true);
        if (opt.lcApps.empty()) {
            throw std::invalid_argument(
                "sweep needs at least one LC app (app=load)");
        }
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    try {
        const auto apps = colocation(opt);
        RunContext ctx(opt, "");
        const auto mc = ctx.machine();
        const std::vector<std::string> strategies{
            "Unmanaged", "LC-first", "PARTIES", "CLITE", "ARQ"};
        const std::vector<double> loads{0.1, 0.3, 0.5, 0.7, 0.9};

        // One tagged job per (load, strategy), fanned across the
        // pool; results and (while tracing) trace buffers come back
        // in job order, so the output is identical at any --jobs.
        std::vector<exec::ScenarioJob> jobs;
        for (double load : loads) {
            auto swept = apps;
            swept[0] = cluster::lcAt(
                apps::byName(opt.lcApps[0].first), load);
            const cluster::Node node(mc, std::move(swept));
            const std::string load_tag =
                report::TextTable::num(load * 100, 0) + "%";
            for (const auto &name : strategies) {
                jobs.push_back({name, node, ctx.config,
                                name + "@" + load_tag});
            }
        }

        exec::ScenarioRunner runner;
        runner.setObsScope(ctx.config.obs);
        const auto results = runner.run(jobs);

        std::vector<std::string> header{opt.lcApps[0].first +
                                        " load"};
        header.insert(header.end(), strategies.begin(),
                      strategies.end());
        report::TextTable t(header);
        std::size_t job = 0;
        for (double load : loads) {
            std::vector<std::string> row{
                report::TextTable::num(load * 100, 0) + "%"};
            for (std::size_t s = 0; s < strategies.size(); ++s) {
                row.push_back(report::TextTable::num(
                    results[job++].meanES));
            }
            t.addRow(row);
        }
        out << "E_S by strategy ("
            << opt.lcApps[0].first << " sweeping):\n";
        t.print(out);
        ctx.finish(out, "profile (span tree, all scenarios merged):");
        return 0;
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

int
runChaos(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    SimulateOptions opt;
    try {
        Flags flags("chaos");
        opt = parseAppRunArgs(flags, args, /*require_apps=*/false);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    try {
        // Canonical chaos colocation when no apps were given.
        if (opt.lcApps.empty() && opt.beApps.empty()) {
            opt.lcApps = {{"xapian", 0.5},
                          {"moses", 0.2},
                          {"img-dnn", 0.2}};
            opt.beApps = {"stream"};
        }
        auto apps = colocation(opt);
        RunContext ctx(opt, "");
        cluster::Node node(ctx.machine(), std::move(apps));
        if (opt.faultsPath.empty()) {
            ctx.plan = fault::FaultPlan::builtinChaos();
            ctx.config.faults = &ctx.plan;
        }
        // Chaos exists to prove the invariants hold under faults,
        // so the auditor is strict unless --check says otherwise.
        if (!opt.checkModeExplicit)
            ctx.config.checkMode = check::Mode::Strict;
        // Metrics are always on: the summary below reads them.
        ctx.config.obs.metrics = &ctx.metrics;

        std::vector<exec::ScenarioJob> jobs;
        for (const auto &name : sched::allStrategyNames())
            jobs.push_back({name, node, ctx.config, name});

        exec::ScenarioRunner runner;
        runner.setObsScope(ctx.config.obs);
        const auto results = runner.run(jobs);

        out << "chaos over " << node.describe() << " ("
            << (opt.faultsPath.empty() ? "built-in plan"
                                       : opt.faultsPath)
            << ", check=" << check::toString(ctx.config.checkMode)
            << "):\n";
        report::TextTable t(
            {"strategy", "E_S", "yield", "violations"});
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            t.addRow({jobs[i].strategy,
                      report::TextTable::num(results[i].meanES),
                      report::TextTable::num(
                          results[i].yieldValue),
                      std::to_string(results[i].violations)});
        }
        t.print(out);

        auto line = [&](const char *label, const char *name) {
            out << "  " << label << " = "
                << static_cast<long long>(ctx.metrics.counter(name))
                << "\n";
        };
        out << "fault injection:\n";
        line("measurement drops", "fault.measurement_drop");
        line("actuation failures", "fault.actuation_fail");
        line("decisions skipped", "fault.decision_skipped");
        out << "recovery:\n";
        line("measurement recoveries", "recovery.measurement");
        line("actuation retries won", "recovery.actuation_retry");

        ctx.finish(out, "profile (span tree, all strategies merged):");
        return 0;
    } catch (const check::InvariantViolation &e) {
        err << "invariant violation under faults: " << e.what()
            << "\n";
        return 1;
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

int
runApps(std::ostream &out)
{
    report::TextTable t({"name", "kind", "threshold (ms)",
                         "max load (QPS)", "threads"});
    for (const auto &name : apps::allNames()) {
        const auto p = apps::byName(name);
        t.addRow({p.name, p.latencyCritical ? "LC" : "BE",
                  p.latencyCritical ?
                      report::TextTable::num(p.tailThresholdMs, 2) :
                      "-",
                  p.latencyCritical ?
                      report::TextTable::num(p.maxLoadQps, 1) : "-",
                  std::to_string(p.threads)});
    }
    t.print(out);
    return 0;
}

int
runStrategies(std::ostream &out)
{
    for (const auto &s : sched::allStrategyNames())
        out << s << "\n";
    return 0;
}

int
runChecks(std::ostream &out)
{
    report::TextTable t({"check", "reference", "summary"});
    for (const auto &c : check::registeredChecks())
        t.addRow({c.name, c.reference, c.summary});
    t.print(out);
    out << "enable with AHQ_CHECK=log|strict or --check "
           "(simulate/sweep)\n";
    return 0;
}

int
dispatch(const std::vector<std::string> &argv, std::ostream &out,
         std::ostream &err)
{
    auto usage = [](std::ostream &os) {
        os << "usage: ahq <subcommand> [args]\n"
              "  entropy <obs.csv>          E_S from measurements\n"
              "  simulate [opts] app=load.. one colocation run\n"
              "  sweep [opts] app=load..    Fig.8-style E_S table\n"
              "  chaos [opts] [app=load..]  all strategies under "
              "an injected fault plan\n"
              "  fleet [opts]               datacenter-scale fleet "
              "under the global load generator (--nodes N --lc N "
              "--be N --tenants M --zipf S --rebalance-every E "
              "--spread T)\n"
              "  experiment <verb> [opts]   online A/B policy "
              "experiment on the fleet: design | run | analyze | "
              "verdict (--design switchback|interleaved --arm-a S "
              "--arm-b S --nodes N --blocks N --block-epochs N "
              "--resamples N --confidence C; run also takes the "
              "fleet's --lc --be --tenants --zipf)\n"
              "  oracle [opts] app=load..   best static partitions "
              "(--waystep N)\n"
              "  trace <file.jsonl>         summarise a --trace "
              "run\n"
              "  why [opts] <file.jsonl>    blame table from a "
              "--trace --attribute run: who hurts each LC app, "
              "through which resource (--scenario TAG --app NAME "
              "--top N --format text|csv|json)\n"
              "  alerts [opts] <file.jsonl> SLO alert timeline of "
              "a --trace --slo run (--scenario TAG --app NAME "
              "--format text|csv|json)\n"
              "  timeline [opts] <file.jsonl>  per-series "
              "sparkline / csv / json timelines of a --trace run\n"
              "  profile <file.jsonl>       span tree of a "
              "--profile run\n"
              "  report [opts] <input>...   fold traces + "
              "BENCH_*.json into one summary\n"
              "  bench-diff <old> <new>     per-benchmark "
              "speedups + regression gate between two "
              "BENCH_*.json (or --baseline <old> <new>)\n"
              "  apps                       workload catalogue\n"
              "  strategies                 scheduler registry\n"
              "  checks                     invariant-audit "
              "registry\n"
              "shared run flags: --strategy S --duration S "
              "--warmup N --cores N --ways N\n"
              "  --bw N --seed N --percentile P --ri R --csv FILE\n"
              "  --jobs N (worker threads; default AHQ_JOBS or "
              "all cores)\n"
              "  --trace FILE (JSONL decision trace; env "
              "AHQ_TRACE) --metrics (dump counters)\n"
              "  --trace-sample R (keep each epoch's trace events "
              "with probability R in [0,1]; seeded, so sampled "
              "traces stay byte-identical at any --jobs)\n"
              "  --profile (span profiler + tree; env AHQ_PROF; "
              "only simulate's trace carries wall times, so every "
              "fan-out verb's trace is byte-identical at any "
              "--jobs)\n"
              "  --attribute (counterfactual interference "
              "attribution: blame ledger + attribution trace "
              "events) --slo (burn-rate SLO alerts)\n"
              "  --check off|log|strict (invariant audit; env "
              "AHQ_CHECK)\n"
              "  --faults FILE (JSONL fault plan; env AHQ_FAULTS; "
              "chaos defaults to a built-in plan; fleet fails "
              "crashed nodes over)\n"
              "  (flags also accept --flag=value)\n"
              "shared run flags each verb honours (any other "
              "exits 2):\n";
        for (const auto &verb : runVerbs()) {
            std::string line = "  " + verb.name + ":";
            for (const auto &flag : verb.honoured) {
                if (line.size() + 1 + flag.size() > 78) {
                    os << line << "\n";
                    line = "   ";
                }
                line += " " + flag;
            }
            os << line << "\n";
        }
        os << "strategies (--strategy):";
        for (const auto &s : sched::allStrategyNames())
            os << " " << s;
        os << "\n";
    };
    if (argv.empty()) {
        usage(err);
        return 2;
    }
    if (argv[0] == "help" || argv[0] == "--help" ||
        argv[0] == "-h") {
        usage(out);
        return 0;
    }
    const std::string cmd = argv[0];
    const std::vector<std::string> rest(argv.begin() + 1,
                                        argv.end());
    if (cmd == "entropy")
        return runEntropy(rest, out, err);
    if (cmd == "simulate")
        return runSimulate(rest, out, err);
    if (cmd == "oracle")
        return runOracle(rest, out, err);
    if (cmd == "sweep")
        return runSweep(rest, out, err);
    if (cmd == "fleet")
        return runFleet(rest, out, err);
    if (cmd == "chaos")
        return runChaos(rest, out, err);
    if (cmd == "experiment")
        return runExperiment(rest, out, err);
    if (cmd == "trace")
        return runTrace(rest, out, err);
    if (cmd == "why")
        return runWhy(rest, out, err);
    if (cmd == "alerts")
        return runAlerts(rest, out, err);
    if (cmd == "timeline")
        return runTimeline(rest, out, err);
    if (cmd == "profile")
        return runProfile(rest, out, err);
    if (cmd == "report")
        return runReport(rest, out, err);
    if (cmd == "bench-diff")
        return runBenchDiff(rest, out, err);
    if (cmd == "apps")
        return runApps(out);
    if (cmd == "strategies")
        return runStrategies(out);
    if (cmd == "checks")
        return runChecks(out);
    err << "unknown subcommand: " << cmd << "\n";
    return 2;
}

} // namespace ahq::cli
