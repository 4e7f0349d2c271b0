/**
 * @file
 * Tests for the CoPart-style fairness baseline.
 */

#include <gtest/gtest.h>

#include "machine/config.hh"
#include "sched/copart.hh"

namespace
{

using namespace ahq::sched;
using ahq::machine::MachineConfig;

/** Units of every kind in a region's resources. */
int
units(const ahq::machine::ResourceVector &r)
{
    return r.cores + r.llcWays + r.memBw;
}

std::vector<AppObservation>
mixed(double lc_slowdown = 1.0, double be_slowdown = 1.0)
{
    std::vector<AppObservation> obs(3);
    for (int i = 0; i < 3; ++i) {
        obs[static_cast<std::size_t>(i)].id = i;
        obs[static_cast<std::size_t>(i)].latencyCritical = i < 2;
    }
    obs[0].idealP95Ms = 2.0;
    obs[0].p95Ms = 2.0 * lc_slowdown;
    obs[0].thresholdMs = 10.0;
    obs[1].idealP95Ms = 2.0;
    obs[1].p95Ms = 2.0;
    obs[1].thresholdMs = 10.0;
    obs[2].ipcSolo = 2.0;
    obs[2].ipc = 2.0 / be_slowdown;
    return obs;
}

TEST(CoPart, SlowdownNotionPerKind)
{
    const auto obs = mixed(3.0, 2.0);
    EXPECT_NEAR(CoPart::slowdownOf(obs[0]), 3.0, 1e-12);
    EXPECT_NEAR(CoPart::slowdownOf(obs[1]), 1.0, 1e-12);
    EXPECT_NEAR(CoPart::slowdownOf(obs[2]), 2.0, 1e-12);
}

TEST(CoPart, EveryAppGetsOwnPartition)
{
    CoPart s;
    auto layout = s.initialLayout(MachineConfig::xeonE52630v4(),
                                  mixed());
    EXPECT_EQ(layout.numRegions(), 3);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(layout.isolatedRegionOf(i), i);
    EXPECT_TRUE(layout.valid());
    EXPECT_EQ(layout.allocated(), layout.available());
}

TEST(CoPart, TransfersFromLeastToMostSlowed)
{
    CoPart s;
    auto layout = s.initialLayout(MachineConfig::xeonE52630v4(),
                                  mixed());
    const int worst_before = units(layout.region(0).res);
    const int best_before = units(layout.region(1).res);
    s.adjust(layout, mixed(3.0, 1.5), 0.5); // app 0 most slowed
    EXPECT_EQ(units(layout.region(0).res), worst_before + 1);
    EXPECT_EQ(units(layout.region(1).res), best_before - 1);
}

TEST(CoPart, HysteresisPreventsChurn)
{
    CoPart s;
    auto layout = s.initialLayout(MachineConfig::xeonE52630v4(),
                                  mixed());
    const auto before = layout.region(0).res;
    s.adjust(layout, mixed(1.05, 1.02), 0.5); // within threshold
    EXPECT_EQ(layout.region(0).res, before);
}

TEST(CoPart, ConvergesTowardEqualSlowdowns)
{
    // Feed a fixed imbalance repeatedly; transfers must continue
    // and remain legal until the donor hits its floor.
    CoPart s;
    auto layout = s.initialLayout(MachineConfig::xeonE52630v4(),
                                  mixed());
    for (int e = 0; e < 30; ++e) {
        s.adjust(layout, mixed(4.0, 1.0), 0.5 * e);
        ASSERT_TRUE(layout.valid());
    }
    // App 0 accumulated most of app 1's donatable resources.
    EXPECT_GT(units(layout.region(0).res),
              units(layout.region(1).res));
    EXPECT_GE(layout.region(1).res.cores, 1);
    EXPECT_GE(layout.region(1).res.llcWays, 1);
}

TEST(CoPart, SingleAppIsNoOp)
{
    CoPart s;
    std::vector<AppObservation> one(1);
    one[0].id = 0;
    one[0].latencyCritical = true;
    auto layout = s.initialLayout(MachineConfig::xeonE52630v4(),
                                  one);
    const auto before = layout.region(0).res;
    s.adjust(layout, one, 0.5);
    EXPECT_EQ(layout.region(0).res, before);
    EXPECT_EQ(s.name(), "CoPart");
}

} // namespace
