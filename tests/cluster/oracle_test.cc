/**
 * @file
 * Tests for the static-partition oracle search.
 */

#include <gtest/gtest.h>

#include "apps/catalog.hh"
#include <cmath>

#include "cluster/epoch_sim.hh"
#include "cluster/oracle.hh"
#include "perf/queueing.hh"
#include "sched/registry.hh"

namespace
{

using namespace ahq;
using namespace ahq::cluster;

Node
smallNode(double xapian_load = 0.5)
{
    return Node(machine::MachineConfig::xeonE52630v4(),
                {lcAt(apps::xapian(), xapian_load),
                 lcAt(apps::moses(), 0.2), be(apps::stream())});
}

OracleConfig
coarse()
{
    OracleConfig cfg;
    cfg.wayStep = 4; // keep tests fast
    return cfg;
}

TEST(Oracle, SteadyStateEntropyIsDeterministicAndBounded)
{
    const auto node = smallNode();
    auto layout = machine::RegionLayout::fullyShared(
        node.config().availableResources(), {0, 1, 2});
    const auto a = steadyStateEntropy(
        node, layout, perf::CoreSharePolicy::LcPriority);
    const auto b = steadyStateEntropy(
        node, layout, perf::CoreSharePolicy::LcPriority);
    EXPECT_DOUBLE_EQ(a.eS, b.eS);
    EXPECT_GE(a.eS, 0.0);
    EXPECT_LE(a.eS, 1.0);
}

TEST(Oracle, BestLayoutsAreValidAndFullyAllocated)
{
    const auto node = smallNode();
    const auto iso = bestIsolatedPartition(node, coarse());
    const auto hyb = bestHybridPartition(node, coarse());
    EXPECT_TRUE(iso.layout.valid());
    EXPECT_TRUE(hyb.layout.valid());
    EXPECT_GT(iso.evaluated, 10);
    EXPECT_GT(hyb.evaluated, 10);
    // The search assigns every core and way.
    EXPECT_EQ(iso.layout.allocated().cores, 10);
    EXPECT_EQ(hyb.layout.allocated().cores, 10);
}

TEST(Oracle, HybridFamilyAtLeastMatchesIsolation)
{
    // The paper's key insight, quantified: the best hybrid layout
    // can never lose to the best fully-isolated layout by more than
    // model noise, and with a bandwidth-hog BE app it should win.
    const auto node = smallNode(0.5);
    const auto iso = bestIsolatedPartition(node, coarse());
    const auto hyb = bestHybridPartition(node, coarse());
    EXPECT_LE(hyb.report.eS, iso.report.eS + 0.01);
}

TEST(Oracle, IsolatedOracleBeatsEvenSplit)
{
    const auto node = smallNode(0.7);
    const auto iso = bestIsolatedPartition(node, coarse());

    // The PARTIES starting layout (even split) evaluated under the
    // same steady-state objective.
    auto even = machine::RegionLayout::evenlyIsolated(
        {10, 20, 10}, {0, 1});
    machine::Region pool;
    pool.name = "bepool";
    pool.shared = true;
    pool.members = {2};
    // Carve the pool from the second region's share.
    even.region(1).res = {2, 4, 3};
    pool.res = {3, 6, 4};
    even.region(0).res = {5, 10, 3};
    even.addRegion(std::move(pool));
    ASSERT_TRUE(even.valid());
    const auto even_rep = steadyStateEntropy(
        node, even, perf::CoreSharePolicy::FairShare, coarse());

    EXPECT_LE(iso.report.eS, even_rep.eS + 1e-9);
}


TEST(Oracle, SaturatedScenarioStaysFiniteAndBad)
{
    // A hopeless node: heavy load on 4 cores. The steady-state
    // objective must stay finite with Q near its ceiling, not blow
    // up (the oracle search relies on comparable values).
    Node node(machine::MachineConfig::xeonE52630v4()
                  .withAvailable(4, 8, 4),
              {lcAt(apps::xapian(), 0.95),
               lcAt(apps::moses(), 0.9), be(apps::stream())});
    auto layout = machine::RegionLayout::fullyShared(
        {4, 8, 4}, {0, 1, 2});
    const auto rep = steadyStateEntropy(
        node, layout, perf::CoreSharePolicy::LcPriority);
    EXPECT_TRUE(std::isfinite(rep.eS));
    EXPECT_GT(rep.eLc, 0.3);
    EXPECT_LE(rep.eS, 1.0);
}

TEST(Oracle, HighLoadShiftsResourcesToLoadedApp)
{
    const auto cfg = coarse();
    const auto hot = bestHybridPartition(smallNode(0.9), cfg);
    const auto cold = bestHybridPartition(smallNode(0.1), cfg);
    // Xapian's reachable cores at 90% load >= at 10% load.
    EXPECT_GE(hot.layout.reachable(0, machine::ResourceKind::Cores),
              cold.layout.reachable(
                  0, machine::ResourceKind::Cores) - 1);
}

/**
 * The simulator and the oracle share one LC tail rule. On a
 * constant-load node without noise, under strategies that never
 * change the layout, the oracle's steady-state E_S equals the
 * simulator's epoch E_S bit for bit: at epoch 0 below saturation,
 * and saturated (xapian at 0.98 on 4 cores) at the last epoch, once
 * every saturated app's backlog sits at the generator's cap the
 * oracle assumes.
 */
TEST(Oracle, SteadyStateEntropyIsTheSimulatorsEpochEntropy)
{
    for (const char *strategy : {"Unmanaged", "LC-first"}) {
        for (const double p : {0.95, 0.9}) {
            for (const bool saturated : {false, true}) {
                const double load = saturated ? 0.98 : 0.5;
                const Node node(
                    machine::MachineConfig::xeonE52630v4()
                        .withAvailable(saturated ? 4 : 10, 20, 10),
                    {lcAt(apps::xapian(), load),
                     lcAt(apps::moses(), 0.2), be(apps::stream())});
                SimulationConfig sim;
                sim.noiseSigma = 0.0;
                sim.tailPercentile = p;
                sim.durationSeconds = 30.0;
                const auto sched = sched::makeScheduler(strategy);
                const auto res = EpochSimulator(node, sim).run(*sched);
                const auto &rec =
                    saturated ? res.epochs.back() : res.epochs.front();
                const double xapian_cap = perf::backlogCap(
                    node.profile(0).arrivalRate(load),
                    sim.queueCapSeconds);
                ASSERT_EQ(rec.queueBacklog[0],
                          saturated ? xapian_cap : 0.0)
                    << strategy;
                if (saturated) {
                    ASSERT_EQ(res.epochs.end()[-2].queueBacklog,
                              rec.queueBacklog)
                        << strategy;
                }
                OracleConfig oc;
                oc.tailPercentile = p;
                const auto rep = steadyStateEntropy(
                    node, rec.layout, sched->corePolicy(), oc);
                EXPECT_EQ(rep.eS, rec.entropy.eS)
                    << strategy << " p=" << p << " load=" << load;
            }
        }
    }
}

} // namespace
