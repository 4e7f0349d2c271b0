/**
 * @file
 * Custom workloads: modelling YOUR application instead of the
 * paper's.
 *
 * The workflow a user follows to bring their own service into the
 * simulator:
 *   1. measure a few (ways, MPKI) points with CAT sweeps and fit a
 *      miss-rate curve (perf::fitMissRateCurve);
 *   2. build a calibrated profile from the numbers they already
 *      track — max load, QoS target, idle-tail latency
 *      (apps::AppBuilder);
 *   3. colocate it with the catalogue apps and compare strategies.
 */

#include <iostream>

#include "apps/builder.hh"
#include "apps/catalog.hh"
#include "cluster/epoch_sim.hh"
#include "perf/mrc_fit.hh"
#include "report/table.hh"
#include "sched/registry.hh"

int
main()
{
    using namespace ahq;

    // ---- 1. fit an MRC from "measured" CAT-sweep points ----------
    // (These numbers stand in for pqos + perf-counter measurements.)
    const std::vector<perf::MrcSample> measured{
        {2, 21.0}, {4, 15.2}, {6, 12.1}, {8, 10.4},
        {12, 8.4}, {16, 7.3}, {20, 6.7}};
    const auto fit = perf::fitMissRateCurve(measured);
    std::cout << "fitted MRC: mpki_max=" << fit.curve.mpkiMax()
              << " mpki_min=" << fit.curve.mpkiMin()
              << " ways_half=" << fit.curve.waysHalf()
              << " (rmse " << fit.rmse << ")\n";

    // ---- 2. build the profile from operational numbers -----------
    const auto my_service =
        apps::AppBuilder("checkout-api")
            .maxLoadQps(1200.0)   // measured knee
            .tailThresholdMs(15.0) // SLO
            .idealTailAt20Ms(5.0)  // quiet-hours p95
            .cache(fit.curve.mpkiMax(), fit.curve.mpkiMin(),
                   fit.curve.waysHalf())
            .build();
    std::cout << "calibrated: service=" << my_service.serviceTimeMs
              << " ms, p95 multiplier=" << my_service.svcP95Mult
              << "\n\n";

    // ---- 3. colocate and compare ---------------------------------
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(my_service, 0.6),
                        cluster::lcAt(apps::masstree(), 0.3),
                        cluster::be(apps::stream())});
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 120.0;
    cfg.warmupEpochs = 120;
    cluster::EpochSimulator sim(node, cfg);

    report::TextTable t({"strategy", "checkout p95 (ms)",
                         "masstree p95 (ms)", "stream IPC", "E_S",
                         "yield"});
    for (const auto &name : {"PARTIES", "ARQ"}) {
        const auto s = sched::makeScheduler(name);
        const auto r = sim.run(*s);
        t.addRow({s->name(),
                  report::TextTable::num(r.meanP95Ms[0], 2),
                  report::TextTable::num(r.meanP95Ms[1], 2),
                  report::TextTable::num(r.meanIpc[2], 2),
                  report::TextTable::num(r.meanES),
                  report::TextTable::num(r.yieldValue, 2)});
    }
    t.print(std::cout);
    std::cout << "\n(SLO: checkout-api 15 ms, masstree "
              << apps::masstree().tailThresholdMs << " ms)\n";
    return 0;
}
