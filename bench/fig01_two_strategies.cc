/**
 * @file
 * Fig. 1: two resource scheduling strategies A and B over the same
 * colocation (Xapian, Moses, Img-dnn + Fluidanimate).
 *
 * Strategy A shares resources (slight, elasticity-tolerable QoS
 * excursion for Img-dnn but a BE app running near full speed);
 * strategy B isolates aggressively (QoS met with margin, BE app
 * starved). Per the paper's argument, raw tail latencies and IPC do
 * not reveal which strategy is better, while E_S does: A wins.
 */

#include <iostream>

#include "common.hh"
#include "core/entropy.hh"
#include "machine/layout.hh"
#include "perf/contention.hh"
#include "perf/queueing.hh"

using namespace ahq;
using namespace ahq::bench;

namespace
{

struct StrategyOutcome
{
    std::vector<double> tail;  // per LC app, ms
    double ipc;                // BE app
    core::EntropyReport report;
};

/** Evaluate one static layout with the contention model. */
StrategyOutcome
evaluate(const machine::RegionLayout &layout,
         perf::CoreSharePolicy policy)
{
    const auto mc = machine::MachineConfig::xeonE52630v4();
    perf::ContentionModel model(mc);

    const std::vector<apps::AppProfile> profiles{
        apps::xapian(), apps::moses(), apps::imgDnn(),
        apps::fluidanimate()};
    const std::vector<double> loads{0.4, 0.4, 0.6, 0.0};

    std::vector<perf::AppDemand> demands;
    for (std::size_t i = 0; i < profiles.size(); ++i)
        demands.push_back(profiles[i].toDemand(loads[i]));

    const auto out = model.evaluate(layout, demands, policy);

    StrategyOutcome so;
    std::vector<core::LcObservation> lc;
    std::vector<core::BeObservation> be;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const auto &p = profiles[i];
        if (p.latencyCritical) {
            const double t95 =
                p.baseLatencyMs +
                1000.0 * perf::sojournPercentileApprox(
                             out[i].coreEquivalents,
                             demands[i].arrivalRate,
                             out[i].perServerRate,
                             p.svcP95Mult * out[i].serviceStretch);
            so.tail.push_back(t95);
            lc.push_back({p.soloTailPercentileMs(loads[i], 0.95), t95,
                          p.tailThresholdMs});
        } else {
            so.ipc = out[i].ipc;
            be.push_back({p.ipcSolo, out[i].ipc});
        }
    }
    so.report = core::computeEntropy(lc, be);
    return so;
}

} // namespace

int
main()
{
    report::heading(std::cout,
                    "Fig. 1 — why E_S beats raw tails and IPC");

    // Strategy A: everything shared, LC priority (ARQ-flavoured).
    const std::vector<machine::AppId> all{0, 1, 2, 3};
    auto layout_a =
        machine::RegionLayout::fullyShared({10, 20, 10}, all);

    // Strategy B: aggressive isolation; the BE app keeps scraps.
    machine::RegionLayout layout_b({10, 20, 10});
    const int lc_cores[3] = {3, 3, 3};
    const int lc_ways[3] = {7, 6, 6};
    for (int i = 0; i < 3; ++i) {
        machine::Region r;
        r.name = "isoB" + std::to_string(i);
        r.shared = false;
        r.members = {i};
        r.res = {lc_cores[i], lc_ways[i], 3};
        layout_b.addRegion(std::move(r));
    }
    machine::Region pool;
    pool.name = "bepool";
    pool.shared = true;
    pool.members = {3};
    pool.res = {1, 1, 1};
    layout_b.addRegion(std::move(pool));

    const auto a = evaluate(layout_a,
                            perf::CoreSharePolicy::LcPriority);
    const auto b = evaluate(layout_b,
                            perf::CoreSharePolicy::FairShare);

    const std::vector<apps::AppProfile> lc_profiles{
        apps::xapian(), apps::moses(), apps::imgDnn()};

    report::TextTable t({"metric", "QoS target", "strategy A",
                         "strategy B"});
    for (std::size_t i = 0; i < lc_profiles.size(); ++i) {
        t.addRow({lc_profiles[i].name + " p95 (ms)",
                  num(lc_profiles[i].tailThresholdMs, 2),
                  num(a.tail[i], 2), num(b.tail[i], 2)});
    }
    t.addRow({"fluidanimate IPC", "-", num(a.ipc, 2),
              num(b.ipc, 2)});
    t.addRow({"E_LC", "-", num(a.report.eLc), num(b.report.eLc)});
    t.addRow({"E_BE", "-", num(a.report.eBe), num(b.report.eBe)});
    t.addRow({"E_S", "-", num(a.report.eS), num(b.report.eS)});
    t.print(std::cout);

    std::cout << "\nReading: strategy "
              << (a.report.eS < b.report.eS ? "A" : "B")
              << " has the lower system entropy";
    if (a.report.eS < b.report.eS) {
        std::cout << " — the small QoS excursion is within the "
                     "threshold elasticity, while B starves the "
                     "BE application.";
    }
    std::cout << "\n";

    auto csv = openCsv("fig01.csv",
                       {"strategy", "xapian_p95", "moses_p95",
                        "imgdnn_p95", "be_ipc", "e_lc", "e_be",
                        "e_s"});
    csv->addRow({"A", num(a.tail[0]), num(a.tail[1]),
                 num(a.tail[2]), num(a.ipc), num(a.report.eLc),
                 num(a.report.eBe), num(a.report.eS)});
    csv->addRow({"B", num(b.tail[0]), num(b.tail[1]),
                 num(b.tail[2]), num(b.ipc), num(b.report.eLc),
                 num(b.report.eBe), num(b.report.eS)});
    return 0;
}
