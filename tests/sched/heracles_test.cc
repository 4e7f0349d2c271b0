/**
 * @file
 * Tests for the Heracles-style threshold baseline.
 */

#include <gtest/gtest.h>

#include "machine/config.hh"
#include "sched/heracles.hh"

namespace
{

using namespace ahq::sched;
using ahq::machine::MachineConfig;
using ahq::machine::ResourceKind;

/** Units of every kind in a region's resources. */
int
units(const ahq::machine::ResourceVector &r)
{
    return r.cores + r.llcWays + r.memBw;
}

std::vector<AppObservation>
apps(double slack0 = 0.5, double load0 = 0.3)
{
    std::vector<AppObservation> obs(3);
    for (int i = 0; i < 3; ++i) {
        auto &o = obs[static_cast<std::size_t>(i)];
        o.id = i;
        o.latencyCritical = i < 2;
        o.thresholdMs = 10.0;
        o.p95Ms = 10.0 * (1.0 - 0.5);
        o.loadFraction = 0.3;
        o.ipcSolo = 2.0;
        o.ipc = 1.0;
    }
    obs[0].p95Ms = 10.0 * (1.0 - slack0);
    obs[0].loadFraction = load0;
    return obs;
}

TEST(Heracles, InitialLayoutTwoPools)
{
    Heracles s;
    auto layout = s.initialLayout(MachineConfig::xeonE52630v4(),
                                  apps());
    ASSERT_EQ(layout.numRegions(), 2);
    EXPECT_TRUE(layout.region(0).hasMember(0));
    EXPECT_TRUE(layout.region(0).hasMember(1));
    EXPECT_TRUE(layout.region(1).hasMember(2));
    EXPECT_FALSE(layout.region(1).hasMember(0));
    // LC pool dominates initially.
    EXPECT_GT(layout.region(0).res.cores,
              layout.region(1).res.cores);
    EXPECT_TRUE(layout.valid());
}

TEST(Heracles, GrowsBeWhenSlackAmple)
{
    Heracles s;
    auto layout = s.initialLayout(MachineConfig::xeonE52630v4(),
                                  apps());
    const int be_before = units(layout.region(1).res);
    s.adjust(layout, apps(0.5, 0.3), 0.5); // slack 0.5 > 0.25
    EXPECT_GT(units(layout.region(1).res), be_before);
}

TEST(Heracles, ShrinksBeOnLowSlack)
{
    Heracles s;
    auto layout = s.initialLayout(MachineConfig::xeonE52630v4(),
                                  apps());
    // Grow a few units first.
    for (int e = 0; e < 4; ++e)
        s.adjust(layout, apps(0.5, 0.3), 0.5 * e);
    const int be_grown = units(layout.region(1).res);
    s.adjust(layout, apps(0.05, 0.3), 10.0); // slack below 0.10
    EXPECT_LT(units(layout.region(1).res), be_grown);
}

TEST(Heracles, HoldsInDeadBand)
{
    Heracles s;
    auto layout = s.initialLayout(MachineConfig::xeonE52630v4(),
                                  apps());
    const int be_before = units(layout.region(1).res);
    s.adjust(layout, apps(0.18, 0.3), 0.5); // between thresholds
    EXPECT_EQ(units(layout.region(1).res), be_before);
}

TEST(Heracles, FreezesGrowthNearPeakLoad)
{
    Heracles s;
    auto layout = s.initialLayout(MachineConfig::xeonE52630v4(),
                                  apps());
    const int be_before = units(layout.region(1).res);
    s.adjust(layout, apps(0.6, 0.9), 0.5); // slack fine, load high
    EXPECT_EQ(units(layout.region(1).res), be_before);
}

TEST(Heracles, LayoutStaysValidUnderPressure)
{
    Heracles s;
    auto layout = s.initialLayout(MachineConfig::xeonE52630v4(),
                                  apps());
    // Shrink far beyond what the BE pool can give.
    for (int e = 0; e < 50; ++e) {
        s.adjust(layout, apps(0.01, 0.3), 0.5 * e);
        ASSERT_TRUE(layout.valid());
    }
    EXPECT_GE(layout.region(1).res.cores, 1);
    EXPECT_EQ(s.name(), "Heracles");
}

TEST(Heracles, NoBePoolIsNoOp)
{
    Heracles s;
    std::vector<AppObservation> lc_only(2);
    for (int i = 0; i < 2; ++i) {
        lc_only[static_cast<std::size_t>(i)].id = i;
        lc_only[static_cast<std::size_t>(i)].latencyCritical = true;
    }
    auto layout = s.initialLayout(MachineConfig::xeonE52630v4(),
                                  lc_only);
    EXPECT_EQ(layout.numRegions(), 1);
    const auto before = layout.region(0).res;
    s.adjust(layout, lc_only, 0.5);
    EXPECT_EQ(layout.region(0).res, before);
}

} // namespace
