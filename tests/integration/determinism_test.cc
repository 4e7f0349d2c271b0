/**
 * @file
 * Reproducibility: identical configurations and seeds must yield
 * bit-identical simulations; different seeds only perturb noise.
 */

#include <gtest/gtest.h>

#include "apps/catalog.hh"
#include "cluster/epoch_sim.hh"
#include "sched/arq.hh"
#include "sched/clite.hh"
#include "sched/parties.hh"

namespace
{

using namespace ahq;
using namespace ahq::cluster;

Node
node()
{
    return Node(machine::MachineConfig::xeonE52630v4(),
                {lcAt(apps::xapian(), 0.5),
                 lcAt(apps::moses(), 0.2), be(apps::stream())});
}

SimulationConfig
cfg(std::uint64_t seed)
{
    SimulationConfig c;
    c.durationSeconds = 40.0;
    c.warmupEpochs = 40;
    c.seed = seed;
    return c;
}

template <typename Sched>
void
expectIdenticalRuns()
{
    Sched s1, s2;
    const auto r1 = EpochSimulator(node(), cfg(7)).run(s1);
    const auto r2 = EpochSimulator(node(), cfg(7)).run(s2);
    ASSERT_EQ(r1.epochs.size(), r2.epochs.size());
    for (std::size_t e = 0; e < r1.epochs.size(); ++e) {
        const auto &a = r1.epochs[e];
        const auto &b = r2.epochs[e];
        for (std::size_t i = 0; i < a.obs.size(); ++i) {
            EXPECT_DOUBLE_EQ(a.obs[i].p95Ms, b.obs[i].p95Ms);
            EXPECT_DOUBLE_EQ(a.obs[i].ipc, b.obs[i].ipc);
        }
        EXPECT_DOUBLE_EQ(a.entropy.eS, b.entropy.eS);
        ASSERT_EQ(a.layout.numRegions(), b.layout.numRegions());
        for (int r = 0; r < a.layout.numRegions(); ++r)
            EXPECT_EQ(a.layout.region(r).res, b.layout.region(r).res);
    }
    EXPECT_DOUBLE_EQ(r1.meanES, r2.meanES);
}

TEST(Determinism, ArqBitIdentical)
{
    expectIdenticalRuns<sched::Arq>();
}

TEST(Determinism, PartiesBitIdentical)
{
    expectIdenticalRuns<sched::Parties>();
}

TEST(Determinism, CliteBitIdentical)
{
    expectIdenticalRuns<sched::Clite>();
}

TEST(Determinism, ReusedSchedulerInstanceIsReset)
{
    // Running the same scheduler object twice must give the same
    // result as two fresh instances (run() calls reset()).
    sched::Arq s;
    const auto r1 = EpochSimulator(node(), cfg(7)).run(s);
    const auto r2 = EpochSimulator(node(), cfg(7)).run(s);
    EXPECT_DOUBLE_EQ(r1.meanES, r2.meanES);
    EXPECT_EQ(r1.violations, r2.violations);
}

TEST(Determinism, DifferentSeedsPerturbOnlyNoise)
{
    sched::Parties s;
    const auto r1 = EpochSimulator(node(), cfg(1)).run(s);
    const auto r2 = EpochSimulator(node(), cfg(2)).run(s);
    // Different noise draws...
    EXPECT_NE(r1.epochs[5].obs[0].p95Ms, r2.epochs[5].obs[0].p95Ms);
    // ...but statistically equivalent behaviour.
    EXPECT_NEAR(r1.meanES, r2.meanES, 0.1);
}

} // namespace
