/**
 * @file
 * Tests for the fleet aggregation and the placement advisor.
 */

#include <gtest/gtest.h>

#include "apps/catalog.hh"
#include "cluster/fleet.hh"
#include "fault/plan.hh"
#include "obs/trace_sink.hh"
#include "sched/arq.hh"
#include "sched/unmanaged.hh"

namespace
{

using namespace ahq;
using namespace ahq::cluster;

SimulationConfig
quick()
{
    SimulationConfig c;
    c.durationSeconds = 30.0;
    c.warmupEpochs = 30;
    return c;
}

TEST(Fleet, RunsEveryNodeAndAggregates)
{
    Fleet fleet;
    fleet.addNode(Node(machine::MachineConfig::xeonE52630v4(),
                       {lcAt(apps::xapian(), 0.2),
                        be(apps::fluidanimate())}),
                  std::make_unique<sched::Arq>());
    fleet.addNode(Node(machine::MachineConfig::xeonE52630v4(),
                       {lcAt(apps::moses(), 0.2),
                        be(apps::stream())}),
                  std::make_unique<sched::Arq>());
    ASSERT_EQ(fleet.numNodes(), 2);

    const auto res = fleet.run(quick());
    ASSERT_EQ(res.nodes.size(), 2u);
    EXPECT_GE(res.eS, 0.0);
    EXPECT_LE(res.eS, 1.0);
    EXPECT_GE(res.yieldValue, 0.0);
    EXPECT_LE(res.yieldValue, 1.0);
}

TEST(Fleet, PooledEntropyMatchesManualComputation)
{
    Node n1(machine::MachineConfig::xeonE52630v4(),
            {lcAt(apps::xapian(), 0.2), be(apps::fluidanimate())});
    Node n2(machine::MachineConfig::xeonE52630v4(),
            {lcAt(apps::moses(), 0.3), be(apps::stream())});
    sched::Arq s1, s2;
    const auto r1 = EpochSimulator(n1, quick()).run(s1);
    const auto r2 = EpochSimulator(n2, quick()).run(s2);

    FleetAccumulator acc;
    acc.add(n1, r1);
    acc.add(n2, r2);
    const auto rep = acc.entropy();
    EXPECT_EQ(rep.lcDetail.size(), 2u);

    std::vector<core::LcObservation> lc{
        {n1.profile(0).soloTailPercentileMs(0.2, 0.95), r1.meanP95Ms[0],
         n1.profile(0).tailThresholdMs},
        {n2.profile(0).soloTailPercentileMs(0.3, 0.95), r2.meanP95Ms[0],
         n2.profile(0).tailThresholdMs}};
    std::vector<core::BeObservation> be_obs{
        {n1.profile(1).ipcSolo, r1.meanIpc[1]},
        {n2.profile(1).ipcSolo, r2.meanIpc[1]}};
    const auto manual = core::computeEntropy(lc, be_obs);
    EXPECT_NEAR(rep.eS, manual.eS, 1e-9);
}

TEST(Fleet, PoolsAgainstTheSoloTailAtTheRunsPercentile)
{
    // A run at p99 holds p99 tails in its p95 fields, so the pooled
    // E_LC must compare them with each app's solo p99 at its steady
    // load, not with its solo p95.
    const Node node(machine::MachineConfig::xeonE52630v4(),
                    {lcAt(apps::xapian(), 0.6), lcAt(apps::moses(), 0.4),
                     be(apps::stream())});
    SimulationConfig cfg = quick();
    cfg.tailPercentile = 0.99;
    sched::Arq arq;
    const auto res = EpochSimulator(node, cfg).run(arq);

    FleetAccumulator acc;
    acc.add(node, res);
    const auto rep = acc.entropy();
    ASSERT_EQ(rep.lcDetail.size(), 2u);
    for (int i = 0; i < 2; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        const auto &p = node.profile(i);
        const auto want = core::lcBreakdown(
            {p.soloTailPercentileMs(res.steadyMeanLoad[ui], 0.99),
             res.meanP95Ms[ui], p.tailThresholdMs});
        const auto &got = rep.lcDetail[ui];
        EXPECT_EQ(got.tolerance, want.tolerance) << p.name;
        EXPECT_EQ(got.interference, want.interference) << p.name;
        EXPECT_EQ(got.remainingTolerance, want.remainingTolerance)
            << p.name;
        EXPECT_EQ(got.intolerable, want.intolerable) << p.name;
    }
}

TEST(Fleet, BetterSchedulersLowerFleetEntropy)
{
    auto make_fleet = [](bool use_arq) {
        Fleet fleet;
        for (int n = 0; n < 2; ++n) {
            Node node(machine::MachineConfig::xeonE52630v4()
                          .withAvailable(6, 12, 10),
                      {lcAt(apps::xapian(), 0.5),
                       lcAt(apps::moses(), 0.2),
                       be(apps::stream())});
            if (use_arq) {
                fleet.addNode(std::move(node),
                              std::make_unique<sched::Arq>());
            } else {
                fleet.addNode(std::move(node),
                              std::make_unique<sched::Unmanaged>());
            }
        }
        return fleet;
    };
    auto arq_fleet = make_fleet(true);
    auto base_fleet = make_fleet(false);
    const auto ra = arq_fleet.run(quick());
    const auto rb = base_fleet.run(quick());
    EXPECT_LT(ra.eS, rb.eS);
}


TEST(Fleet, DeterministicForSeed)
{
    auto make = [] {
        Fleet fleet;
        fleet.addNode(Node(machine::MachineConfig::xeonE52630v4(),
                           {lcAt(apps::xapian(), 0.4),
                            be(apps::stream())}),
                      std::make_unique<sched::Arq>());
        fleet.addNode(Node(machine::MachineConfig::xeonE52630v4(),
                           {lcAt(apps::moses(), 0.3),
                            be(apps::fluidanimate())}),
                      std::make_unique<sched::Arq>());
        return fleet;
    };
    auto f1 = make();
    auto f2 = make();
    const auto r1 = f1.run(quick());
    const auto r2 = f2.run(quick());
    EXPECT_DOUBLE_EQ(r1.eS, r2.eS);
    EXPECT_EQ(r1.violations, r2.violations);
    // Nodes see different noise streams (derived seeds)...
    EXPECT_NE(r1.nodes[0].epochs[5].obs[0].p95Ms,
              r1.nodes[1].epochs[5].obs[0].p95Ms);
}

TEST(Fleet, EmptyFleetIsCleanZero)
{
    Fleet fleet;
    const auto res = fleet.run(quick());
    EXPECT_EQ(res.nodes.size(), 0u);
    EXPECT_EQ(res.eS, 0.0);
    EXPECT_EQ(res.yieldValue, 1.0);
    EXPECT_EQ(res.violations, 0);
}

TEST(Placement, SpreadsHungryAppsAcrossNodes)
{
    PlacementAdvisor advisor(
        machine::MachineConfig::xeonE52630v4(), 2,
        [] { return std::make_unique<sched::Arq>(); });

    // Two bandwidth hogs and two LC apps: any sane entropy-driven
    // placement separates the hogs.
    const std::vector<ColocatedApp> apps_to_place{
        be(apps::stream()), be(apps::stream()),
        lcAt(apps::xapian(), 0.5), lcAt(apps::moses(), 0.3)};

    SimulationConfig trial;
    trial.durationSeconds = 15.0;
    trial.warmupEpochs = 15;
    const auto placement = advisor.place(apps_to_place, trial);

    ASSERT_EQ(placement.assignment.size(), 4u);
    for (int a : placement.assignment) {
        EXPECT_GE(a, 0);
        EXPECT_LT(a, 2);
    }
    EXPECT_NE(placement.assignment[0], placement.assignment[1])
        << "both STREAM instances on one node";
    EXPECT_GE(placement.meanEntropy, 0.0);
    EXPECT_LE(placement.meanEntropy, 1.0);
}

TEST(Placement, TrialConfigAttachesNoObserver)
{
    // A placement search keeps only each trial's mean E_S, so a trial
    // run carries none of the base run's seams: no telemetry, audit,
    // faults, attribution, SLO monitor or per-epoch records.
    obs::BufferTraceSink sink;
    fault::FaultPlan plan;
    SimulationConfig base;
    base.obs.sink = &sink;
    base.checkMode = check::Mode::Log;
    base.faults = &plan;
    base.attribute = true;
    base.slo = true;
    base.seed = 7;

    const SimulationConfig trial = trialConfig(base, 8.0, 2);
    EXPECT_FALSE(trial.obs.tracing());
    EXPECT_EQ(trial.checkMode, check::Mode::Off);
    EXPECT_EQ(trial.faults, nullptr);
    EXPECT_FALSE(trial.keepEpochs);
    EXPECT_FALSE(trial.attribute);
    EXPECT_FALSE(trial.slo);
    EXPECT_EQ(trial.durationSeconds, 8.0);
    EXPECT_EQ(trial.warmupEpochs, 2);
    EXPECT_EQ(trial.seed, 7u);

    // An overloaded trial node: with the seams on it would fill a
    // blame ledger and read a burn rate.
    sched::Arq arq;
    const auto res =
        EpochSimulator(Node(machine::MachineConfig::xeonE52630v4(),
                            {lcAt(apps::xapian(), 0.9),
                             lcAt(apps::moses(), 0.8),
                             be(apps::stream())}),
                       trial)
            .run(arq);
    EXPECT_TRUE(res.attribution.empty());
    EXPECT_EQ(res.slo.worstBurn, 0.0);
    EXPECT_TRUE(sink.str().empty());
}

TEST(Placement, SingleNodeTakesEverything)
{
    PlacementAdvisor advisor(
        machine::MachineConfig::xeonE52630v4(), 1,
        [] { return std::make_unique<sched::Arq>(); });
    const std::vector<ColocatedApp> apps_to_place{
        lcAt(apps::xapian(), 0.2), be(apps::fluidanimate())};
    SimulationConfig trial;
    trial.durationSeconds = 10.0;
    trial.warmupEpochs = 10;
    const auto placement = advisor.place(apps_to_place, trial);
    for (int a : placement.assignment)
        EXPECT_EQ(a, 0);
}

} // namespace
