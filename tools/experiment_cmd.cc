/**
 * @file
 * `ahq experiment`: online two-arm policy experiments on a live
 * fleet — design the assignment, run it through the policy-swap
 * seam, and estimate the scheduler contrast with naive /
 * Differences-in-Q / mixed estimators and bootstrap CIs.
 *
 * Verbs:
 *   design   print the randomized (node x block) arm assignment
 *   run      run the experiment and print blocks + estimates
 *   analyze  re-estimate from a run's trace (experiment_block
 *            events), e.g. at a different confidence level
 *   verdict  one-line verdict from a run's trace
 */

#include "cli.hh"

#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/harness.hh"
#include "obs/trace_reader.hh"
#include "report/table.hh"
#include "sched/registry.hh"

namespace ahq::cli
{

namespace
{

std::string
ciCell(const stats::ConfidenceInterval &ci)
{
    return report::TextTable::num(ci.estimate) + " [" +
        report::TextTable::num(ci.lo) + ", " +
        report::TextTable::num(ci.hi) + "]";
}

void
printEstimates(std::ostream &out,
               const experiment::ExperimentEstimates &est,
               experiment::Verdict verdict)
{
    report::TextTable t({"metric", "naive", "dq", "mixed",
                         "alpha"});
    const auto row = [&](const char *name,
                         const experiment::MetricEstimate &m) {
        t.addRow({name, ciCell(m.naive), ciCell(m.dq),
                  ciCell(m.mixed),
                  report::TextTable::num(m.alpha, 2)});
    };
    row("dE_S", est.es);
    row("dp95_ms", est.p95Ms);
    row("dviol_rate", est.violations);
    t.print(out);
    out << "blocks: " << est.blocksA << " A / " << est.blocksB
        << " B\n";
    out << "verdict: " << experiment::verdictName(verdict)
        << " (mixed dE_S CI "
        << (verdict == experiment::Verdict::Inconclusive
                ? "straddles zero"
                : "excludes zero")
        << ")\n";
}

/** Rebuild BlockStats from a trace's experiment_block events. */
std::vector<experiment::BlockStat>
blocksFromTrace(const std::string &path)
{
    std::vector<experiment::BlockStat> blocks;
    obs::forEachTraceFile(path, [&](const obs::TraceEvent &ev,
                                    int) {
        if (ev.type() != "experiment_block")
            return;
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
        blocks.push_back(s);
    });
    return blocks;
}

void
printDesign(std::ostream &out, const experiment::ExperimentDesign &d)
{
    out << "design: " << experiment::designKindName(d.kind)
        << ", A=" << d.armA << " B=" << d.armB << ", "
        << d.numNodes << " nodes x " << d.blocksPerNode
        << " blocks x " << d.blockEpochs << " epochs, seed "
        << d.seed << "\n";
    report::TextTable t({"node", "blocks (A=0 B=1)"});
    for (int n = 0; n < d.numNodes; ++n) {
        const auto arms = experiment::nodeBlockArms(d, n);
        std::string cells;
        for (const auto a : arms) {
            if (!cells.empty())
                cells += ' ';
            cells += a == 0 ? 'A' : 'B';
        }
        t.addRow({std::to_string(n), cells});
    }
    t.print(out);
}

void
runAndPrint(experiment::ExperimentRunConfig cfg,
            const SimulateOptions &opt, std::ostream &out)
{
    RunContext ctx(opt, "exp");
    // Experiment traces carry no time series.
    ctx.config.obs.series = nullptr;
    cfg.machine = ctx.machine();
    cfg.base = ctx.config;
    const auto res = experiment::runExperiment(cfg);

    out << "experiment: "
        << experiment::designKindName(res.design.kind) << ", A="
        << res.design.armA << " B=" << res.design.armB << ", "
        << res.design.numNodes << " nodes x "
        << res.design.blocksPerNode << " blocks x "
        << res.design.blockEpochs << " epochs, "
        << res.policySwaps << " policy swaps\n";
    printEstimates(out, res.estimates, res.verdict);
    if (opt.attribute && !res.attribution.empty()) {
        out << "experiment blame ledger (top 12 by attributed "
               "interference):\n";
        printBlameTable(out, res.attribution, 12);
    }
    if (opt.slo)
        printSloSummary(out, res.slo);
    ctx.finish(out, "profile (span tree, all nodes merged):");
}

} // namespace

int
runExperiment(const std::vector<std::string> &args,
              std::ostream &out, std::ostream &err)
{
    if (args.empty()) {
        err << "usage: ahq experiment "
               "design|run|analyze|verdict [options]\n";
        return 2;
    }
    const std::string verb = args[0];
    if (verb != "design" && verb != "run" && verb != "analyze" &&
        verb != "verdict") {
        err << "unknown experiment verb: " << verb << "\n";
        return 2;
    }
    const bool from_trace = verb == "analyze" || verb == "verdict";

    SimulateOptions opt;
    experiment::ExperimentRunConfig cfg;
    cfg.load.numNodes = cfg.design.numNodes;
    std::vector<std::string> positional;
    try {
        Flags flags("experiment " + verb);
        if (!from_trace) {
            addWorkloadShape(flags, cfg.load);
            auto &d = cfg.design;
            flags
                .value("--design",
                       [&](const std::string &v) {
                           d.kind = experiment::designKindFromName(v);
                       })
                .value("--arm-a", [&](const std::string &v) { d.armA = v; })
                .value("--arm-b", [&](const std::string &v) { d.armB = v; })
                .value("--blocks",
                       [&](const std::string &v) {
                           d.blocksPerNode = parseCount(v, "--blocks", 2);
                       })
                .value("--block-epochs", [&](const std::string &v) {
                    d.blockEpochs = parseCount(v, "--block-epochs", 1);
                });
        }
        if (verb == "design") {
            // The design is a pure function of (seed, geometry): it
            // neither materializes the workload nor estimates.
            for (const char *f : {"--lc", "--be", "--tenants", "--zipf"})
                flags.reject(f);
        } else {
            auto &e = cfg.estimator;
            flags
                .value("--resamples",
                       [&](const std::string &v) {
                           e.resamples = parseCount(v, "--resamples", 1);
                       })
                .value("--confidence", [&](const std::string &v) {
                    e.confidence = parseNumber(v, "--confidence");
                    if (e.confidence <= 0.0 || e.confidence >= 1.0) {
                        throw std::invalid_argument(
                            "--confidence must be in (0, 1)");
                    }
                });
        }
        positional = parseRunFlags(
            flags, opt, {args.begin() + 1, args.end()});
        cfg.design.numNodes = cfg.load.numNodes;
        cfg.design.seed = opt.seed;
        cfg.estimator.seed = opt.seed;
        cfg.load.seed = opt.seed;
        if (from_trace) {
            if (positional.size() != 1) {
                throw std::invalid_argument(
                    positional.empty() ? "trace file required"
                                       : "exactly one trace file "
                                         "expected");
            }
        } else {
            if (!positional.empty()) {
                throw std::invalid_argument(
                    "experiment synthesizes its workload from the "
                    "global load generator; app specs are not "
                    "accepted (shape it with --lc/--be/--tenants)");
            }
            // The arms must exist before any simulation starts.
            sched::makeScheduler(cfg.design.armA);
            sched::makeScheduler(cfg.design.armB);
            experiment::validateDesign(cfg.design);
        }
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    if (from_trace) {
        try {
            const auto blocks = blocksFromTrace(positional[0]);
            if (blocks.empty()) {
                err << "error: no experiment_block events in "
                    << positional[0] << "\n";
                return 1;
            }
            const auto est = experiment::estimate(blocks, cfg.estimator);
            const auto verdict = experiment::verdictOf(est);
            if (verb == "verdict")
                out << experiment::verdictName(verdict) << "\n";
            else
                printEstimates(out, est, verdict);
            return 0;
        } catch (const std::exception &e) {
            err << "error: " << e.what() << "\n";
            return 2;
        }
    }

    try {
        if (verb == "design") {
            RunContext ctx(opt, ""); // applies --jobs; nothing runs
            printDesign(out, cfg.design);
        } else {
            runAndPrint(cfg, opt, out);
        }
        return 0;
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

} // namespace ahq::cli
