/**
 * @file
 * Tests for the PARTIES controller.
 */

#include <gtest/gtest.h>

#include "machine/config.hh"
#include "sched/parties.hh"

namespace
{

using namespace ahq::sched;
using ahq::machine::MachineConfig;
using ahq::machine::RegionId;
using ahq::machine::ResourceKind;

/** Units of every kind in a region's resources. */
int
units(const ahq::machine::ResourceVector &r)
{
    return r.cores + r.llcWays + r.memBw;
}

std::vector<AppObservation>
threeLcOneBe()
{
    std::vector<AppObservation> obs(4);
    for (int i = 0; i < 4; ++i) {
        auto &o = obs[static_cast<std::size_t>(i)];
        o.id = i;
        o.latencyCritical = i < 3;
        o.thresholdMs = 10.0;
        o.p95Ms = 5.0; // slack 0.5: everyone comfortable
        o.ipcSolo = 2.0;
        o.ipc = 1.5;
    }
    return obs;
}

TEST(Parties, InitialLayoutStrictlyPartitioned)
{
    Parties s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto layout = s.initialLayout(cfg, threeLcOneBe());
    // 3 isolated LC regions + 1 shared BE pool.
    EXPECT_EQ(layout.numRegions(), 4);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(layout.isolatedRegionOf(i), i);
    const RegionId pool = layout.sharedRegion();
    ASSERT_NE(pool, ahq::machine::kNoRegion);
    EXPECT_EQ(layout.region(pool).members,
              (std::vector<ahq::machine::AppId>{3}));
    // Even split of 10 cores over 4 groups: 3,3,2,2.
    EXPECT_EQ(layout.region(0).res.cores, 3);
    EXPECT_EQ(layout.region(3).res.cores, 2);
    EXPECT_TRUE(layout.valid());
    EXPECT_EQ(layout.allocated(), layout.available());
}

TEST(Parties, NoBePoolWhenNoBeApps)
{
    Parties s;
    auto obs = threeLcOneBe();
    obs.pop_back();
    auto layout = s.initialLayout(MachineConfig::xeonE52630v4(),
                                  obs);
    EXPECT_EQ(layout.numRegions(), 3);
    EXPECT_EQ(layout.sharedRegion(), ahq::machine::kNoRegion);
}

TEST(Parties, ViolationUpsizesFromPool)
{
    Parties s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = threeLcOneBe();
    auto layout = s.initialLayout(cfg, obs);
    const int pool_cores_before =
        layout.region(layout.sharedRegion()).res.cores;
    const int app_cores_before = layout.region(0).res.cores;

    obs[0].p95Ms = 20.0; // violated
    s.adjust(layout, obs, 0.5);

    EXPECT_EQ(layout.region(0).res.cores, app_cores_before + 1);
    EXPECT_EQ(layout.region(layout.sharedRegion()).res.cores,
              pool_cores_before - 1);
    EXPECT_TRUE(layout.valid());
}

TEST(Parties, MultipleViolationsAllUpsized)
{
    Parties s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = threeLcOneBe();
    auto layout = s.initialLayout(cfg, obs);
    obs[0].p95Ms = 20.0;
    obs[1].p95Ms = 30.0;
    const int a0 = units(layout.region(0).res);
    const int a1 = units(layout.region(1).res);
    s.adjust(layout, obs, 0.5);
    EXPECT_GT(units(layout.region(0).res), a0);
    EXPECT_GT(units(layout.region(1).res), a1);
}

TEST(Parties, ComfortStreakRequiredBeforeDownsize)
{
    Parties s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = threeLcOneBe();
    auto layout = s.initialLayout(cfg, obs);
    const int pool = layout.sharedRegion();
    const int pool_units_before =
        units(layout.region(pool).res);

    // A single comfortable interval must not trigger a downsize.
    s.adjust(layout, obs, 0.5);
    EXPECT_EQ(units(layout.region(pool).res),
              pool_units_before);

    // After enough comfortable intervals a trial downsize fires and
    // the BE pool grows by one unit.
    for (int i = 0; i < 10; ++i)
        s.adjust(layout, obs, 0.5 * (i + 2));
    EXPECT_GT(units(layout.region(pool).res),
              pool_units_before);
}

TEST(Parties, TrialRevertedOnViolation)
{
    Parties s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = threeLcOneBe();
    auto layout = s.initialLayout(cfg, obs);
    const int pool = layout.sharedRegion();

    // Build comfort and trigger a trial downsize.
    int downsized_app = -1;
    int trial_epoch = -1;
    for (int e = 0; e < 12; ++e) {
        const auto before = layout;
        s.adjust(layout, obs, 0.5 * e);
        for (int a = 0; a < 3; ++a) {
            if (units(layout.region(a).res) <
                units(before.region(a).res)) {
                downsized_app = a;
                trial_epoch = e;
            }
        }
        if (downsized_app >= 0)
            break;
    }
    ASSERT_GE(downsized_app, 0) << "no trial downsize happened";
    (void)trial_epoch;
    const int units_after_downsize =
        units(layout.region(downsized_app).res);

    // The downsized app violates: PARTIES must revert (and may
    // additionally upsize it, since it is violated).
    obs[static_cast<std::size_t>(downsized_app)].p95Ms = 50.0;
    s.adjust(layout, obs, 100.0);
    EXPECT_GE(units(layout.region(downsized_app).res),
              units_after_downsize + 1);
    EXPECT_GE(layout.region(pool).res.cores, 1);
}

TEST(Parties, StarvedAppStealsFromRichDonor)
{
    Parties s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = threeLcOneBe();
    auto layout = s.initialLayout(cfg, obs);

    // Drain the pool to its minimum by violating app 0 repeatedly.
    obs[0].p95Ms = 50.0;
    for (int e = 0; e < 12; ++e)
        s.adjust(layout, obs, 0.5 * e);
    const int pool = layout.sharedRegion();
    EXPECT_EQ(layout.region(pool).res.cores, 1);

    // App 0 still violated, app 1 has huge slack: donor kicks in.
    obs[1].p95Ms = 1.0;
    const int donor_before = units(layout.region(1).res);
    for (int e = 12; e < 18; ++e)
        s.adjust(layout, obs, 0.5 * e);
    EXPECT_LT(units(layout.region(1).res), donor_before);
    EXPECT_TRUE(layout.valid());
}

TEST(Parties, ResetClearsState)
{
    Parties s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = threeLcOneBe();
    auto layout = s.initialLayout(cfg, obs);
    obs[0].p95Ms = 20.0;
    s.adjust(layout, obs, 0.5);
    s.reset();
    // After reset the controller behaves like new: fresh layout and
    // no cooldowns that would block an immediate trial sequence.
    auto layout2 = s.initialLayout(cfg, threeLcOneBe());
    EXPECT_EQ(layout2.region(0).res.cores, 3);
    EXPECT_EQ(s.name(), "PARTIES");
}

} // namespace
