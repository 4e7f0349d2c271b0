/**
 * @file
 * Property/fuzz tests: the allocation invariants must survive
 * arbitrary (randomised but seeded) inputs — random move sequences
 * on layouts, and controllers fed random observation streams.
 */

#include <gtest/gtest.h>

#include "machine/config.hh"
#include "machine/layout.hh"
#include "sched/arq.hh"
#include "sched/clite.hh"
#include "sched/parties.hh"
#include "stats/rng.hh"

namespace
{

using namespace ahq;
using machine::RegionLayout;
using machine::ResourceKind;
using sched::AppObservation;

TEST(LayoutFuzz, RandomMoveSequencesPreserveInvariants)
{
    stats::Rng rng(12345);
    for (int trial = 0; trial < 50; ++trial) {
        auto layout = RegionLayout::arqInitial(
            {10, 20, 10}, {0, 1, 2}, {3});
        const auto total_before = layout.allocated();

        for (int step = 0; step < 400; ++step) {
            const auto from = static_cast<machine::RegionId>(
                rng.uniformInt(static_cast<std::uint64_t>(
                    layout.numRegions())));
            const auto to = static_cast<machine::RegionId>(
                rng.uniformInt(static_cast<std::uint64_t>(
                    layout.numRegions())));
            const auto kind = machine::kAllResourceKinds[
                rng.uniformInt(machine::kNumResourceKinds)];
            layout.moveResource(kind, from, to);

            ASSERT_TRUE(layout.valid());
            ASSERT_EQ(layout.allocated(), total_before);
            for (machine::AppId app : layout.allApps()) {
                ASSERT_GE(layout.reachable(app,
                                           ResourceKind::Cores), 1);
                ASSERT_GE(layout.reachable(
                              app, ResourceKind::LlcWays), 1);
            }
        }
    }
}

/** Random-but-plausible observations for one epoch. */
std::vector<AppObservation>
randomObs(stats::Rng &rng, int n_lc, int n_be)
{
    std::vector<AppObservation> obs;
    for (int i = 0; i < n_lc + n_be; ++i) {
        AppObservation o;
        o.id = i;
        o.latencyCritical = i < n_lc;
        o.threads = 4;
        if (o.latencyCritical) {
            o.thresholdMs = rng.uniform(1.0, 20.0);
            o.idealP95Ms = rng.uniform(0.1, o.thresholdMs);
            o.p95Ms = o.idealP95Ms * rng.uniform(0.8, 30.0);
            o.loadFraction = rng.uniform(0.05, 0.95);
            o.arrivalRate = o.loadFraction * 2000.0;
        } else {
            o.ipcSolo = rng.uniform(0.5, 3.0);
            o.ipc = o.ipcSolo * rng.uniform(0.01, 1.1);
        }
        obs.push_back(o);
    }
    return obs;
}

template <typename SchedT>
void
fuzzScheduler(std::uint64_t seed, int epochs)
{
    stats::Rng rng(seed);
    const auto cfg = machine::MachineConfig::xeonE52630v4();
    SchedT sched;
    auto static_obs = randomObs(rng, 3, 1);
    auto layout = sched.initialLayout(cfg, static_obs);
    const auto total = layout.allocated();

    for (int e = 0; e < epochs; ++e) {
        const auto obs = randomObs(rng, 3, 1);
        sched.adjust(layout, obs, 0.5 * e);
        ASSERT_TRUE(layout.valid()) << "epoch " << e;
        ASSERT_TRUE(
            layout.allocated().fitsWithin(cfg.availableResources()))
            << "epoch " << e;
        // Strict controllers never leak resources either.
        ASSERT_EQ(layout.allocated(), total) << "epoch " << e;
    }
}

TEST(SchedulerFuzz, ArqSurvivesRandomObservations)
{
    fuzzScheduler<sched::Arq>(1, 500);
    fuzzScheduler<sched::Arq>(2, 500);
}

TEST(SchedulerFuzz, PartiesSurvivesRandomObservations)
{
    fuzzScheduler<sched::Parties>(3, 500);
    fuzzScheduler<sched::Parties>(4, 500);
}

TEST(SchedulerFuzz, CliteSurvivesRandomObservations)
{
    fuzzScheduler<sched::Clite>(5, 300);
    fuzzScheduler<sched::Clite>(6, 300);
}

TEST(SchedulerFuzz, ArqWithAblationsSurvives)
{
    stats::Rng rng(7);
    for (const bool rollback : {true, false}) {
        for (const bool shared : {true, false}) {
            sched::ArqConfig c;
            c.rollbackEnabled = rollback;
            c.sharedRegionEnabled = shared;
            sched::Arq sched(c);
            const auto cfg = machine::MachineConfig::xeonE52630v4();
            auto layout = sched.initialLayout(cfg,
                                              randomObs(rng, 2, 2));
            // Every move is followed by a settling interval, so
            // twice the intervals give as many decisions.
            for (int e = 0; e < 400; ++e) {
                sched.adjust(layout, randomObs(rng, 2, 2),
                             0.5 * e);
                ASSERT_TRUE(layout.valid());
            }
        }
    }
}

} // namespace
