/**
 * @file
 * Attribution/SLO-seam overhead anchor: the per-epoch attribution
 * and burn-rate hooks threaded through EpochSimulator must cost
 * nothing measurable when --attribute/--slo are off. Times the
 * faults-off epoch hot path four ways — plain, SLO monitoring on,
 * attribution on, and both — asserts every variant produces the
 * bitwise-identical E_S (the observer effect is zero by contract),
 * and fails if always-on SLO monitoring costs more than 2% over
 * plain. Attribution's counterfactual model evaluations are real
 * work (one ContentionModel call per co-runner per suffering LC
 * app per epoch), so that row is reported and baselined rather
 * than gated against plain; the off-path regression itself is
 * caught by the pre-seam BENCH_epoch_throughput baseline in
 * `ctest -L perf`. With --json it writes
 * BENCH_attribution_overhead.json, committed as the perf baseline
 * for the gate.
 */

#include <iostream>
#include <vector>

#include "common.hh"
#include "sched/registry.hh"

using namespace ahq;
using namespace ahq::bench;

int
main(int argc, char **argv)
{
    BenchJsonWriter json(
        parseBenchArgs(argc, argv, "attribution_overhead"));

    report::heading(std::cout,
                    "Attribution overhead: the blame/SLO seams on "
                    "the faults-off epoch hot path (ARQ, 3600 "
                    "epochs)");

    const cluster::SimulationConfig base = hotConfig();
    const double epochs = base.durationSeconds / base.epochSeconds;
    const cluster::Node node = hotNode();
    const auto arq = sched::makeScheduler("ARQ");

    struct Variant
    {
        const char *name;
        bool attribute;
        bool slo;
        const char *note;
        double es = 0.0;
    };
    Variant variants[] = {
        {"epoch_plain", false, false,
         "epochs=3600 ARQ attribute=off slo=off"},
        {"epoch_slo_on", false, true,
         "epochs=3600 ARQ slo=on (burn-rate monitor)"},
        {"epoch_attr_on", true, false,
         "epochs=3600 ARQ attribute=on (counterfactual evals)"},
        {"epoch_attr_slo", true, true,
         "epochs=3600 ARQ attribute=on slo=on"},
    };

    std::vector<cluster::EpochSimulator> sims;
    std::vector<Row> rows;
    sims.reserve(std::size(variants));
    for (std::size_t i = 0; i < std::size(variants); ++i) {
        cluster::SimulationConfig cfg = base;
        cfg.attribute = variants[i].attribute;
        cfg.slo = variants[i].slo;
        sims.emplace_back(node, cfg);
        rows.push_back(
            {variants[i].name, epochs, "epochs/s", variants[i].note,
             [&, i] { variants[i].es = sims[i].run(*arq).meanES; }});
    }
    const std::vector<double> best = timeRows(rows, json);

    report::TextTable t(
        {"workload", "wall (ms)", "epochs/s", "E_S"});
    for (std::size_t i = 0; i < std::size(variants); ++i) {
        t.addRow({variants[i].name, num(best[i] * 1e3),
                  num(epochs / best[i], 0), num(variants[i].es)});
    }
    t.print(std::cout);

    // Correctness first: neither seam may perturb a single bit of
    // the result, or the timing comparison is meaningless.
    for (const auto &v : variants) {
        if (v.es != variants[0].es) {
            std::cerr << "FAIL: " << v.name << " changed E_S ("
                      << variants[0].es << " vs " << v.es << ")\n";
            return 1;
        }
    }

    const double slo_over = best[1] / best[0] - 1.0;
    const double attr_over = best[2] / best[0] - 1.0;
    std::cout << "slo monitoring overhead on the hot path: "
              << num(slo_over * 100.0, 2) << "% (gate: < 2%)\n"
              << "attribution overhead on the hot path: "
              << num(attr_over * 100.0, 2)
              << "% (reported; baselined, not gated vs plain)\n";
    if (slo_over > 0.02) {
        std::cerr << "FAIL: slo-monitor overhead "
                  << num(slo_over * 100.0, 2) << "% exceeds 2%\n";
        return 1;
    }
    return 0;
}
