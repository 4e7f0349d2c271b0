/**
 * @file
 * Fig. 3: resource equivalence.
 *
 * (a) E_S vs available cores for Unmanaged and ARQ, and the core
 *     savings ("resource equivalence") at E_S targets 0.25 / 0.40.
 * (b) Isentropic lines at E_S = 0.3: the cores needed as a function
 *     of available LLC ways, for all four managed/unmanaged
 *     strategies the paper plots.
 */

#include <iostream>

#include "common.hh"

using namespace ahq;
using namespace ahq::bench;

int
main()
{
    const std::vector<int> cores{4, 5, 6, 7, 8, 9, 10};

    // ---- (a) ------------------------------------------------------
    report::heading(std::cout,
                    "Fig. 3(a) — E_S vs cores, Unmanaged vs ARQ");

    const auto cu = entropyVsCores("Unmanaged", cores, 20,
                                   apps::fluidanimate());
    const auto ca = entropyVsCores("ARQ", cores, 20,
                                   apps::fluidanimate());

    report::TextTable ta({"cores", "Unmanaged E_S", "ARQ E_S"});
    auto csv_a = openCsv("fig03a.csv",
                         {"cores", "unmanaged_es", "arq_es"});
    for (std::size_t i = 0; i < cores.size(); ++i) {
        ta.addRow({std::to_string(cores[i]), num(cu[i].second),
                   num(ca[i].second)});
        csv_a->addRow({std::to_string(cores[i]), num(cu[i].second),
                       num(ca[i].second)});
    }
    ta.print(std::cout);

    report::Series su{"Unmanaged", {}, {}};
    report::Series sa{"ARQ", {}, {}};
    for (std::size_t i = 0; i < cores.size(); ++i) {
        su.xs.push_back(cu[i].first);
        su.ys.push_back(cu[i].second);
        sa.xs.push_back(ca[i].first);
        sa.ys.push_back(ca[i].second);
    }
    report::lineChart(std::cout, {su, sa}, 64, 14,
                      "E_S vs available cores");

    for (double target : {0.25, 0.40}) {
        const auto ru = core::resourceForEntropy(cu, target);
        const auto ra = core::resourceForEntropy(ca, target);
        std::cout << "target E_S = " << target << ": Unmanaged "
                  << (ru ? num(*ru, 2) : "unreachable")
                  << " cores, ARQ "
                  << (ra ? num(*ra, 2) : "unreachable") << " cores";
        if (const auto eq = core::resourceEquivalence(cu, ca, target)) {
            std::cout << "  -> resource equivalence " << num(*eq, 2)
                      << " cores";
        }
        std::cout << "\n";
    }

    // ---- (b) ------------------------------------------------------
    report::heading(std::cout,
                    "Fig. 3(b) — isentropic lines at E_S = 0.3");

    const std::vector<int> ways{4, 6, 8, 10, 12, 16, 20};
    report::TextTable tb({"ways", "Unmanaged", "PARTIES", "CLITE",
                          "ARQ"});
    auto csv_b = openCsv("fig03b.csv",
                         {"ways", "unmanaged_cores",
                          "parties_cores", "clite_cores",
                          "arq_cores"});
    const std::vector<std::string> strategies{
        "Unmanaged", "PARTIES", "CLITE", "ARQ"};

    // One isentropic line per strategy, over E_S-vs-cores curves
    // sampled at each way count.
    const std::vector<double> secondaries(ways.begin(), ways.end());
    std::vector<std::vector<core::IsentropicPoint>> lines;
    for (const auto &s : strategies) {
        std::vector<core::EntropyCurve> curves;
        for (int w : ways) {
            curves.push_back(
                entropyVsCores(s, cores, w, apps::fluidanimate()));
        }
        lines.push_back(core::isentropicLine(secondaries, curves, 0.3));
    }
    for (std::size_t k = 0; k < ways.size(); ++k) {
        std::vector<std::string> row{std::to_string(ways[k])};
        for (const auto &line : lines) {
            const auto &needed = line[k].primary;
            row.push_back(needed ? num(*needed, 2) : "-");
        }
        tb.addRow(row);
        csv_b->addRow(row);
    }
    tb.print(std::cout);

    std::cout << "\nExpected shape (paper): with plentiful ways the "
                 "lines converge; below ~10 ways ARQ\nneeds "
                 "~1 fewer core than PARTIES/CLITE and ~2 fewer "
                 "than Unmanaged for the same E_S.\n";
    return 0;
}
