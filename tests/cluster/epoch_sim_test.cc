/**
 * @file
 * Tests for the epoch simulator: record shapes, queue dynamics,
 * overhead injection and aggregation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/catalog.hh"
#include "cluster/epoch_sim.hh"
#include "sched/lc_first.hh"
#include "sched/unmanaged.hh"

namespace
{

using namespace ahq;
using namespace ahq::cluster;

Node
smallNode(double xapian_load)
{
    return Node(machine::MachineConfig::xeonE52630v4(),
                {lcAt(apps::xapian(), xapian_load),
                 lcAt(apps::moses(), 0.2),
                 be(apps::fluidanimate())});
}

SimulationConfig
quickConfig()
{
    SimulationConfig c;
    c.durationSeconds = 30.0;
    c.warmupEpochs = 20;
    return c;
}

TEST(EpochSim, ProducesOneRecordPerEpoch)
{
    EpochSimulator sim(smallNode(0.2), quickConfig());
    sched::Unmanaged s;
    const auto res = sim.run(s);
    EXPECT_EQ(res.epochs.size(), 60u);
    EXPECT_EQ(res.warmupEpochs, 20);
    for (const auto &rec : res.epochs) {
        EXPECT_EQ(rec.obs.size(), 3u);
        EXPECT_EQ(rec.outcomes.size(), 3u);
        EXPECT_GT(rec.layout.numRegions(), 0);
    }
    EXPECT_NEAR(res.epochs[10].time, 5.0, 1e-9);
}

TEST(EpochSim, MeasurementsPopulated)
{
    EpochSimulator sim(smallNode(0.2), quickConfig());
    sched::LcFirst s;
    const auto res = sim.run(s);
    const auto &rec = res.epochs.back();
    EXPECT_GT(rec.obs[0].p95Ms, 0.0);
    EXPECT_GT(rec.obs[0].idealP95Ms, 0.0);
    EXPECT_NEAR(rec.obs[0].loadFraction, 0.2, 1e-12);
    EXPECT_NEAR(rec.obs[0].arrivalRate, 680.0, 1e-9);
    EXPECT_GT(rec.obs[2].ipc, 0.0);
    EXPECT_EQ(rec.obs[2].p95Ms, 0.0); // BE apps have no latency
}

TEST(EpochSim, EntropyReportedPerEpoch)
{
    EpochSimulator sim(smallNode(0.2), quickConfig());
    sched::LcFirst s;
    const auto res = sim.run(s);
    for (const auto &rec : res.epochs) {
        EXPECT_GE(rec.entropy.eS, 0.0);
        EXPECT_LE(rec.entropy.eS, 1.0);
        EXPECT_EQ(rec.entropy.lcDetail.size(), 2u);
    }
    EXPECT_GE(res.meanES, 0.0);
    EXPECT_LE(res.meanES, 1.0);
}

TEST(EpochSim, LowLoadMeetsQoS)
{
    EpochSimulator sim(smallNode(0.1), quickConfig());
    sched::LcFirst s;
    const auto res = sim.run(s);
    EXPECT_EQ(res.yieldValue, 1.0);
    EXPECT_LT(res.meanELc, 0.02);
    EXPECT_LT(res.meanP95Ms[0], 4.22 * 1.05);
}

TEST(EpochSim, OverloadSaturatesNotDiverges)
{
    // Far beyond max load the measured p95 must stay finite (the
    // load generator bounds outstanding requests).
    Node node(machine::MachineConfig::xeonE52630v4()
                  .withAvailable(4, 8, 4),
              {lcAt(apps::xapian(), 0.95),
               lcAt(apps::moses(), 0.9),
               be(apps::stream())});
    EpochSimulator sim(node, quickConfig());
    sched::Unmanaged s;
    const auto res = sim.run(s);
    for (const auto &rec : res.epochs) {
        EXPECT_TRUE(std::isfinite(rec.obs[0].p95Ms));
        EXPECT_TRUE(std::isfinite(rec.obs[1].p95Ms));
    }
    EXPECT_GT(res.meanP95Ms[0], 4.22); // but clearly violated
    EXPECT_EQ(res.yieldValue, 0.0);
    EXPECT_GT(res.violations, 0);
}

TEST(EpochSim, NoiseDisabledIsNoiseFree)
{
    SimulationConfig c = quickConfig();
    c.noiseSigma = 0.0;
    c.overheadEnabled = false;
    EpochSimulator sim(smallNode(0.2), c);
    sched::LcFirst s;
    const auto res = sim.run(s);
    // With a static scheduler, no noise and drained queues, steady
    // epochs are identical.
    const auto &a = res.epochs[40];
    const auto &b = res.epochs[50];
    EXPECT_DOUBLE_EQ(a.obs[0].p95Ms, b.obs[0].p95Ms);
    EXPECT_DOUBLE_EQ(a.obs[2].ipc, b.obs[2].ipc);
}

TEST(EpochSim, ViolationsCountedAgainstElasticThreshold)
{
    SimulationConfig c = quickConfig();
    c.noiseSigma = 0.0;
    c.overheadEnabled = false;
    EpochSimulator sim(smallNode(0.1), c);
    sched::LcFirst s;
    const auto res = sim.run(s);
    EXPECT_EQ(res.violations, 0);
}

TEST(EpochSim, BacklogCouplesConsecutiveEpochs)
{
    // A load step into overload must keep p95 elevated for at least
    // the following epoch (queue drain), even after the load drops.
    Node node(machine::MachineConfig::xeonE52630v4()
                  .withAvailable(4, 20, 10),
              {lcWith(apps::xapian(),
                      std::make_shared<trace::StepTrace>(
                          std::vector<std::pair<double, double>>{
                              {0.0, 0.2},
                              {10.0, 2.0}, // overload burst
                              {12.0, 0.2},
                          })),
               be(apps::fluidanimate())});
    SimulationConfig c = quickConfig();
    c.noiseSigma = 0.0;
    c.overheadEnabled = false;
    EpochSimulator sim(node, c);
    sched::LcFirst s;
    const auto res = sim.run(s);
    // Epoch 24 is the first after the burst ends (t = 12).
    const double during = res.epochs[23].obs[0].p95Ms;
    const double just_after = res.epochs[24].obs[0].p95Ms;
    const double steady = res.epochs[40].obs[0].p95Ms;
    EXPECT_GT(during, steady * 3.0);
    EXPECT_GT(just_after, steady * 1.5);
}

TEST(EpochSim, RepartitionOverheadVisible)
{
    // Compare two identical runs, one with overhead modelling off:
    // a strategy that never repartitions must be unaffected.
    SimulationConfig with = quickConfig();
    with.noiseSigma = 0.0;
    SimulationConfig without = with;
    without.overheadEnabled = false;
    sched::LcFirst s;
    const auto r1 = EpochSimulator(smallNode(0.2), with).run(s);
    const auto r2 = EpochSimulator(smallNode(0.2), without).run(s);
    EXPECT_NEAR(r1.meanP95Ms[0], r2.meanP95Ms[0], 1e-9);
}


TEST(EpochSim, P99MonitoringIsStricter)
{
    SimulationConfig c95 = quickConfig();
    c95.noiseSigma = 0.0;
    c95.overheadEnabled = false;
    SimulationConfig c99 = c95;
    c99.tailPercentile = 0.99;
    sched::LcFirst s;
    const auto r95 = EpochSimulator(smallNode(0.4), c95).run(s);
    const auto r99 = EpochSimulator(smallNode(0.4), c99).run(s);
    // The measured tail and the ideal both rise with the percentile.
    EXPECT_GT(r99.meanP95Ms[0], r95.meanP95Ms[0]);
    EXPECT_GT(r99.epochs.back().obs[0].idealP95Ms,
              r95.epochs.back().obs[0].idealP95Ms);
}

TEST(EpochSim, MeanAggregatesExcludeWarmup)
{
    SimulationConfig c = quickConfig();
    c.warmupEpochs = 50;
    EpochSimulator sim(smallNode(0.2), c);
    sched::LcFirst s;
    const auto res = sim.run(s);
    EXPECT_EQ(res.warmupEpochs, 50);
    // Recompute the steady mean by hand and compare.
    double sum = 0.0;
    int n = 0;
    for (std::size_t e = 50; e < res.epochs.size(); ++e) {
        sum += res.epochs[e].entropy.eS;
        ++n;
    }
    EXPECT_NEAR(res.meanES, sum / n, 1e-12);
}

} // namespace
