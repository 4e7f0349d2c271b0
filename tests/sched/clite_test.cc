/**
 * @file
 * Tests for the CLITE Bayesian-optimisation controller.
 */

#include <gtest/gtest.h>

#include "machine/config.hh"
#include "obs/scope.hh"
#include "obs/trace_reader.hh"
#include "obs/trace_sink.hh"
#include "sched/clite.hh"

namespace
{

using namespace ahq::sched;
using ahq::machine::MachineConfig;
using ahq::machine::ResourceVector;

std::vector<AppObservation>
twoLcOneBe(double p95_a = 3.0, double p95_b = 3.0, double ipc = 1.5)
{
    std::vector<AppObservation> obs(3);
    for (int i = 0; i < 3; ++i) {
        auto &o = obs[static_cast<std::size_t>(i)];
        o.id = i;
        o.latencyCritical = i < 2;
        o.thresholdMs = 10.0;
        o.loadFraction = 0.3;
        o.ipcSolo = 2.0;
    }
    obs[0].p95Ms = p95_a;
    obs[1].p95Ms = p95_b;
    obs[2].ipc = ipc;
    return obs;
}

/** The `samples` field of every `clite_decision` event in @p sink. */
std::vector<double>
decisionSamples(const ahq::obs::BufferTraceSink &sink)
{
    std::vector<double> out;
    for (const auto &line : sink.lines()) {
        const auto ev = ahq::obs::parseTraceLine(line);
        if (ev.type() == "clite_decision")
            out.push_back(ev.num("samples"));
    }
    return out;
}

/**
 * Epochs until CLITE pins: 24 samples, each scored on the interval
 * after its two settling intervals.
 */
constexpr int kPinnedAfter = 3 * 24;

TEST(Clite, InitialLayoutEvenPartitions)
{
    Clite s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto layout = s.initialLayout(cfg, twoLcOneBe());
    EXPECT_EQ(layout.numRegions(), 3);
    EXPECT_TRUE(layout.valid());
    EXPECT_EQ(layout.allocated(), cfg.availableResources());
    // Even split: 4, 3, 3 cores.
    EXPECT_EQ(layout.region(0).res.cores, 4);
    EXPECT_EQ(layout.region(2).res.cores, 3);
}

TEST(Clite, ExplorationChangesConfiguration)
{
    Clite s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = twoLcOneBe();
    auto layout = s.initialLayout(cfg, obs);
    const auto initial = layout.region(0).res;
    bool changed = false;
    for (int e = 0; e < 10 && !changed; ++e) {
        s.adjust(layout, obs, 0.5 * e);
        changed = !(layout.region(0).res == initial);
        EXPECT_TRUE(layout.valid());
    }
    EXPECT_TRUE(changed);
}

TEST(Clite, EveryExploredConfigKeepsMinimumViability)
{
    Clite s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = twoLcOneBe();
    auto layout = s.initialLayout(cfg, obs);
    for (int e = 0; e < 80; ++e) {
        s.adjust(layout, obs, 0.5 * e);
        ASSERT_TRUE(layout.valid());
        for (int g = 0; g < layout.numRegions(); ++g) {
            EXPECT_GE(layout.region(g).res.cores, 1);
            EXPECT_GE(layout.region(g).res.llcWays, 1);
        }
        // The full machine stays allocated.
        EXPECT_EQ(layout.allocated(),
                  cfg.availableResources());
    }
}

TEST(Clite, PinsAfterBudgetWhenFeasible)
{
    Clite s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = twoLcOneBe(); // always comfortably feasible
    auto layout = s.initialLayout(cfg, obs);
    for (int e = 0; e < kPinnedAfter; ++e)
        s.adjust(layout, obs, 0.5 * e);
    // Past the budget the configuration must stop moving.
    const auto pinned = layout.region(0).res;
    for (int e = kPinnedAfter; e < kPinnedAfter + 24; ++e) {
        s.adjust(layout, obs, 0.5 * e);
        EXPECT_EQ(layout.region(0).res, pinned);
    }
}

TEST(Clite, LoadShiftTriggersReExploration)
{
    Clite s;
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = twoLcOneBe();
    auto layout = s.initialLayout(cfg, obs);
    for (int e = 0; e < kPinnedAfter; ++e)
        s.adjust(layout, obs, 0.5 * e);
    const auto pinned = layout.region(0).res;

    // Shift the load: CLITE must abandon the pinned optimum.
    for (auto &o : obs) {
        if (o.latencyCritical)
            o.loadFraction = 0.8;
    }
    bool moved = false;
    for (int e = kPinnedAfter; e < kPinnedAfter + 10 && !moved; ++e) {
        s.adjust(layout, obs, 0.5 * e);
        moved = !(layout.region(0).res == pinned);
    }
    EXPECT_TRUE(moved);
}

TEST(Clite, SettleEpochsSkipMeasurements)
{
    Clite s;
    ahq::obs::BufferTraceSink sink;
    ahq::obs::Scope scope;
    scope.sink = &sink;
    s.setObsScope(scope);
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = twoLcOneBe();
    auto layout = s.initialLayout(cfg, obs);
    for (int e = 0; e < 9; ++e)
        s.adjust(layout, obs, 0.5 * e);
    // Every third interval is scored, the sample count growing by
    // one each time: 9 / 3 = 3 samples.
    EXPECT_EQ(decisionSamples(sink), (std::vector<double>{1, 2, 3}));
}

TEST(Clite, ResetRestoresFreshState)
{
    Clite s;
    ahq::obs::BufferTraceSink sink;
    ahq::obs::Scope scope;
    scope.sink = &sink;
    s.setObsScope(scope);
    const auto cfg = MachineConfig::xeonE52630v4();
    auto obs = twoLcOneBe();
    auto layout = s.initialLayout(cfg, obs);
    for (int e = 0; e < 10; ++e)
        s.adjust(layout, obs, 0.5 * e);
    ASSERT_EQ(decisionSamples(sink).back(), 4.0);
    s.reset();
    layout = s.initialLayout(cfg, obs);
    s.adjust(layout, obs, 0.0);
    // The first decision after the reset scores sample 1 again.
    EXPECT_EQ(decisionSamples(sink).back(), 1.0);
    EXPECT_EQ(s.name(), "CLITE");
}

TEST(Clite, UsesFairShareOnlyInsideBePool)
{
    Clite s;
    EXPECT_EQ(s.corePolicy(), ahq::perf::CoreSharePolicy::FairShare);
}

} // namespace
