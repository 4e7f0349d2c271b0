/**
 * @file
 * Tests for the ARQ controller (Algorithm 1).
 */

#include <gtest/gtest.h>

#include "machine/config.hh"
#include "obs/scope.hh"
#include "obs/trace_reader.hh"
#include "obs/trace_sink.hh"
#include "sched/arq.hh"

namespace
{

using namespace ahq::sched;
using ahq::machine::kNoRegion;
using ahq::machine::MachineConfig;
using ahq::machine::RegionId;

/** Units of every kind in a region's resources. */
int
units(const ahq::machine::ResourceVector &r)
{
    return r.cores + r.llcWays + r.memBw;
}

/** Two LC apps + one BE app; ideal latencies set for easy ReT math. */
std::vector<AppObservation>
arqApps()
{
    std::vector<AppObservation> obs(3);
    for (int i = 0; i < 3; ++i) {
        auto &o = obs[static_cast<std::size_t>(i)];
        o.id = i;
        o.latencyCritical = i < 2;
        o.thresholdMs = 10.0;
        o.idealP95Ms = 2.0;
        o.p95Ms = 3.0; // ReT = 0.7: comfortable
        o.ipcSolo = 2.0;
        o.ipc = 1.8;
    }
    return obs;
}

TEST(Arq, InitialLayoutIsSharedPlusEmptyIsoRegions)
{
    Arq s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto layout = s.initialLayout(cfg, arqApps());
    EXPECT_EQ(layout.numRegions(), 3); // shared + 2 iso
    EXPECT_EQ(layout.sharedRegion(), 0);
    EXPECT_EQ(layout.region(0).res, cfg.availableResources());
    EXPECT_TRUE(layout.region(layout.isolatedRegionOf(0)).res
                    .empty());
    EXPECT_EQ(s.corePolicy(),
              ahq::perf::CoreSharePolicy::LcPriority);
}

TEST(Arq, EquilibriumWhenEveryoneComfortable)
{
    Arq s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto layout = s.initialLayout(cfg, arqApps());
    const auto obs = arqApps();
    for (int e = 0; e < 10; ++e) {
        s.adjust(layout, obs, 0.5 * e);
        // Victim and beneficiary are both the shared region:
        // equilibrium, nothing moves.
        EXPECT_EQ(layout.region(0).res,
                  cfg.availableResources());
    }
}

TEST(Arq, ViolatedAppGrowsIsolatedRegion)
{
    Arq s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = arqApps();
    auto layout = s.initialLayout(cfg, obs);
    obs[0].p95Ms = 25.0; // ReT = 0, Q > 0: beneficiary
    const RegionId iso = layout.isolatedRegionOf(0);
    s.adjust(layout, obs, 0.0);
    EXPECT_EQ(units(layout.region(iso).res), 1);
    EXPECT_TRUE(layout.valid());
}

TEST(Arq, TieBreakPrefersLargerViolation)
{
    Arq s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = arqApps();
    auto layout = s.initialLayout(cfg, obs);
    obs[0].p95Ms = 12.0; // mildly violated (both ReT = 0)
    obs[1].p95Ms = 50.0; // badly violated: must win the tie
    const RegionId iso1 = layout.isolatedRegionOf(1);
    s.adjust(layout, obs, 0.0);
    EXPECT_EQ(units(layout.region(iso1).res), 1);
}

TEST(Arq, RichAppDonatesIsolatedResourcesBack)
{
    Arq s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = arqApps();
    auto layout = s.initialLayout(cfg, obs);

    // Grow app 0's isolated region while it is violated (one move
    // every other interval: each move is followed by a settle).
    obs[0].p95Ms = 25.0;
    for (int e = 0; e < 6; ++e)
        s.adjust(layout, obs, 0.5 * e);
    const RegionId iso = layout.isolatedRegionOf(0);
    const int grown = units(layout.region(iso).res);
    ASSERT_GT(grown, 0);

    // Now app 0 is comfortable (ReT > 0.1): it becomes the victim
    // and its isolated region shrinks back toward the shared pool.
    obs[0].p95Ms = 3.0;
    for (int e = 6; e < 12; ++e)
        s.adjust(layout, obs, 0.5 * e);
    EXPECT_LT(units(layout.region(iso).res), grown);
}

TEST(Arq, RollbackCancelsEntropyIncreasingMove)
{
    Arq s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = arqApps();
    auto layout = s.initialLayout(cfg, obs);

    // Epoch 0: app 0 violated -> a unit moves into its iso region.
    obs[0].p95Ms = 25.0;
    s.adjust(layout, obs, 0.0);
    const RegionId iso = layout.isolatedRegionOf(0);
    ASSERT_EQ(units(layout.region(iso).res), 1);

    // Entropy got WORSE (BE collapsed). Epoch 1 settles, so the
    // move is not judged yet; epoch 2 rolls it back.
    obs[2].ipc = 0.01;
    s.adjust(layout, obs, 0.5);
    ASSERT_EQ(units(layout.region(iso).res), 1);
    s.adjust(layout, obs, 1.0);
    EXPECT_EQ(units(layout.region(iso).res), 0);
}

TEST(Arq, BanPreventsImmediateRepetition)
{
    Arq s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = arqApps();
    auto layout = s.initialLayout(cfg, obs);

    obs[0].p95Ms = 25.0;
    s.adjust(layout, obs, 0.0); // move shared -> iso0
    obs[2].ipc = 0.01;          // entropy worsened
    s.adjust(layout, obs, 0.5); // settle
    s.adjust(layout, obs, 1.0); // rollback + ban shared region
    obs[2].ipc = 1.8;

    // While the shared region is banned, no further move happens
    // even though app 0 is still violated.
    const RegionId iso = layout.isolatedRegionOf(0);
    s.adjust(layout, obs, 1.5);
    EXPECT_EQ(units(layout.region(iso).res), 0);
    s.adjust(layout, obs, 60.5);
    EXPECT_EQ(units(layout.region(iso).res), 0);

    // After the 60 s ban expires, ARQ tries again.
    s.adjust(layout, obs, 62.0);
    EXPECT_EQ(units(layout.region(iso).res), 1);
}

TEST(Arq, RollbackDisabledAblation)
{
    ArqConfig cfg_arq;
    cfg_arq.rollbackEnabled = false;
    Arq s(cfg_arq);
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = arqApps();
    auto layout = s.initialLayout(cfg, obs);

    obs[0].p95Ms = 25.0;
    s.adjust(layout, obs, 0.0);
    const RegionId iso = layout.isolatedRegionOf(0);
    obs[2].ipc = 0.01;
    s.adjust(layout, obs, 0.5); // settle
    s.adjust(layout, obs, 1.0); // where a rollback would happen
    // Without rollback the move stays and another may follow.
    EXPECT_GE(units(layout.region(iso).res), 1);
}

TEST(Arq, SharedRegionDisabledAblation)
{
    ArqConfig cfg_arq;
    cfg_arq.sharedRegionEnabled = false;
    Arq s(cfg_arq);
    const auto cfg = MachineConfig::xeonE52630v4();
    auto layout = s.initialLayout(cfg, arqApps());
    // Full isolation: LC apps are not members of the shared region.
    const RegionId shared = layout.sharedRegion();
    ASSERT_NE(shared, kNoRegion);
    EXPECT_FALSE(layout.region(shared).hasMember(0));
    EXPECT_TRUE(layout.region(shared).hasMember(2));
    // LC iso regions start with real resources.
    EXPECT_GT(units(layout.region(layout.isolatedRegionOf(0)).res), 0);
    EXPECT_TRUE(layout.valid());
}

TEST(Arq, SettleEpochsSkipDecisions)
{
    Arq s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = arqApps();
    auto layout = s.initialLayout(cfg, obs);
    obs[0].p95Ms = 25.0;
    const RegionId iso = layout.isolatedRegionOf(0);
    s.adjust(layout, obs, 0.0); // move 1
    s.adjust(layout, obs, 0.5); // settling: no move
    EXPECT_EQ(units(layout.region(iso).res), 1);
    s.adjust(layout, obs, 1.0); // move 2
    EXPECT_EQ(units(layout.region(iso).res), 2);
}

TEST(Arq, DecisionEventCarriesTheEntropyReport)
{
    Arq s;
    ahq::obs::BufferTraceSink sink;
    ahq::obs::Scope scope;
    scope.sink = &sink;
    s.setObsScope(scope);
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = arqApps();
    auto layout = s.initialLayout(cfg, obs);
    s.adjust(layout, obs, 0.0);
    const auto lines = sink.lines();
    ASSERT_EQ(lines.size(), 1u);
    const auto ev = ahq::obs::parseTraceLine(lines[0]);
    EXPECT_EQ(ev.type(), "arq_decision");
    EXPECT_EQ(ev.num("e_lc"), 0.0);
    EXPECT_GT(ev.num("e_be"), 0.0);
    EXPECT_EQ(s.name(), "ARQ");
}

TEST(Arq, ResetClearsState)
{
    Arq s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = arqApps();
    auto layout = s.initialLayout(cfg, obs);
    obs[0].p95Ms = 25.0;
    s.adjust(layout, obs, 0.0);
    s.reset();
    auto layout2 = s.initialLayout(cfg, arqApps());
    EXPECT_EQ(layout2.region(0).res, cfg.availableResources());
}

} // namespace
