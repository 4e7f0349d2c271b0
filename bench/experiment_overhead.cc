/**
 * @file
 * Experiment-seam overhead anchor: the policy-swap seam threaded
 * through EpochSimulator must cost nothing measurable when no
 * experiment is running. Times the faults-off epoch hot path two
 * ways, interleaved — the plain single-scheduler run and the same
 * run through runSwitched with a dormant schedule (the seam engaged
 * but never swapping) — plus a full switchback runExperiment, and
 * fails if the dormant seam costs more than 2% over plain. With
 * --json it writes BENCH_experiment_overhead.json, committed as the
 * perf baseline for the `ctest -L perf` gate.
 */

#include <iostream>

#include "common.hh"
#include "experiment/harness.hh"
#include "sched/registry.hh"

using namespace ahq;
using namespace ahq::bench;

int
main(int argc, char **argv)
{
    BenchJsonWriter json(
        parseBenchArgs(argc, argv, "experiment_overhead"));

    report::heading(std::cout,
                    "Experiment overhead: the policy-swap seam on "
                    "the faults-off epoch hot path (ARQ, 3600 "
                    "epochs)");

    const cluster::SimulationConfig cfg = hotConfig();
    const double epochs = cfg.durationSeconds / cfg.epochSeconds;
    const cluster::EpochSimulator sim(hotNode(), cfg);
    const auto arq = sched::makeScheduler("ARQ");

    // A real switchback through the full harness.
    experiment::ExperimentRunConfig ec;
    ec.design.kind = experiment::DesignKind::Switchback;
    ec.design.armA = "ARQ";
    ec.design.armB = "Unmanaged";
    ec.design.numNodes = 4;
    ec.design.blocksPerNode = 4;
    ec.design.blockEpochs = 8;
    ec.design.seed = 42;
    ec.estimator.resamples = 200;
    ec.base.seed = 42;
    const int exp_epochs = ec.design.numNodes *
                           ec.design.blocksPerNode *
                           ec.design.blockEpochs;

    // The dormant seam is runSwitched with one arm and an empty
    // schedule: the contract says it is identical to run(), and the
    // timing shows its per-epoch branch is free too. The gated pair
    // alternates on its own, so each follows the other; with the
    // switchback in the rounds, plain would always follow it.
    double es_plain = 0.0;
    double es_seam = 0.0;
    std::vector<double> best = timeRows(
        {{"epoch_plain", epochs, "epochs/s",
          "epochs=3600 ARQ faults=off",
          [&] { es_plain = sim.run(*arq).meanES; }},
         {"epoch_seam_idle", epochs, "epochs/s",
          "epochs=3600 ARQ faults=off seam=idle",
          [&] {
              es_seam = sim.runSwitched({arq.get()},
                                        cluster::PolicySchedule{})
                            .meanES;
          }}},
        json);
    best.push_back(timeRows(
        {{"experiment_switchback", static_cast<double>(exp_epochs),
          "epochs/s", "nodes=4 blocks=4 block_epochs=8 resamples=200",
          [&] { keep(experiment::runExperiment(ec).blocks.size()); }}},
        json)[0]);

    report::TextTable t(
        {"workload", "wall (ms)", "epochs/s", "E_S"});
    t.addRow({"epoch_plain", num(best[0] * 1e3),
              num(epochs / best[0], 0), num(es_plain)});
    t.addRow({"epoch_seam_idle", num(best[1] * 1e3),
              num(epochs / best[1], 0), num(es_seam)});
    t.addRow({"experiment_switchback", num(best[2] * 1e3),
              num(exp_epochs / best[2], 0), "-"});
    t.print(std::cout);

    // Correctness first: the dormant seam must not perturb a single
    // bit of the result, or the timing comparison is meaningless.
    if (es_plain != es_seam) {
        std::cerr << "FAIL: dormant seam changed E_S (" << es_plain
                  << " vs " << es_seam << ")\n";
        return 1;
    }

    const double overhead = best[1] / best[0] - 1.0;
    std::cout << "seam overhead on the hot path: "
              << num(overhead * 100.0, 2) << "% (gate: < 2%)\n";
    if (overhead > 0.02) {
        std::cerr << "FAIL: dormant-seam overhead "
                  << num(overhead * 100.0, 2) << "% exceeds 2%\n";
        return 1;
    }
    return 0;
}
