/**
 * @file
 * Regression tests for the two cluster-migration bugs: the
 * oscillation mode (near-equal nodes trading the same app back and
 * forth every rebalance) and the migrations-are-free assumption (a
 * move charged no cold-start cost, so marginal migrations that a
 * real drain-and-rewarm would erase looked profitable).
 *
 * Both fixes are constants of the rebalancer (cluster_sched.cc): a
 * 0.01 spread margin with a two-round per-app cooldown, and a cold
 * window of 4 epochs at up to 0.25 service degradation charged to
 * every move. These tests fail when run against the pre-fix
 * decision loop.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/catalog.hh"
#include "cluster/cluster_sched.hh"
#include "cluster/epoch_sim.hh"
#include "cluster/fleet.hh"
#include "obs/metrics.hh"
#include "sched/registry.hh"

namespace
{

using namespace ahq;
using namespace ahq::cluster;

SimulationConfig
base()
{
    SimulationConfig c;
    c.durationSeconds = 1.0; // overridden per round
    return c;
}

/**
 * Two near-equal nodes plus the odd app out: whichever node holds
 * the third LC app looks marginally hotter, so a greedy rebalancer
 * keeps handing it back and forth.
 */
ClusterScheduler
nearEqual(ClusterConfig cc)
{
    ClusterScheduler cs(std::move(cc), "ARQ");
    const auto mc = machine::MachineConfig::xeonE52630v4()
                        .withAvailable(6, 10, 6);
    cs.addNode(mc, {lcAt(apps::xapian(), 0.5),
                    lcAt(apps::moses(), 0.45),
                    lcAt(apps::sphinx(), 0.4)});
    cs.addNode(mc, {lcAt(apps::xapian(), 0.5),
                    lcAt(apps::moses(), 0.45)});
    return cs;
}

/** True iff some app later retraces one of its own moves. */
bool
hasReverseMigration(const std::vector<Migration> &ms)
{
    for (std::size_t i = 0; i < ms.size(); ++i)
        for (std::size_t j = i + 1; j < ms.size(); ++j)
            if (ms[i].app == ms[j].app &&
                ms[j].fromNode == ms[i].toNode &&
                ms[j].toNode == ms[i].fromNode)
                return true;
    return false;
}

ClusterConfig
oscillationConfig()
{
    ClusterConfig cc;
    cc.rounds = 6;
    cc.spreadThreshold = 0.005; // near-equal spread still trips it
    return cc;
}

TEST(MigrationRegression, HysteresisAndCooldownSettle)
{
    // The spread margin and the cooldown: no app retraces its own
    // move, and the rebalancer stops churning instead of migrating
    // every round (the pre-fix loop handed the third LC app back
    // and forth).
    auto cs = nearEqual(oscillationConfig());
    const auto res = cs.run(base());
    EXPECT_FALSE(hasReverseMigration(res.migrations));
    const auto rebalances =
        static_cast<std::size_t>(oscillationConfig().rounds - 1);
    EXPECT_LT(res.migrations.size(), rebalances);
}

/**
 * A mildly hot node: rebalancing it is profitable if moves are
 * free, but the gain is small enough that a charged cold-start
 * window erases it.
 */
ClusterScheduler
marginal(ClusterConfig cc)
{
    ClusterScheduler cs(std::move(cc), "ARQ");
    const auto mc = machine::MachineConfig::xeonE52630v4()
                        .withAvailable(6, 10, 6);
    cs.addNode(mc, {lcAt(apps::xapian(), 0.30),
                    lcAt(apps::moses(), 0.45),
                    lcAt(apps::sphinx(), 0.38)});
    cs.addNode(mc, {lcAt(apps::imgDnn(), 0.34),
                    lcAt(apps::sphinx(), 0.45)});
    return cs;
}

TEST(MigrationRegression, ColdStartCostBlocksMarginalMove)
{
    // Replay the first rebalance: one measurement round gives the
    // node means it sees (a one-round run stops before rebalancing).
    ClusterConfig cc;
    cc.spreadThreshold = 0.01;
    cc.rounds = 1;
    auto probe = marginal(cc);
    const auto means = probe.run(base()).finalNodeES;
    ASSERT_EQ(means.size(), 2u);
    const std::size_t hot = means[0] >= means[1] ? 0 : 1;
    const std::size_t dest = 1 - hot;
    const double spread_now = std::abs(means[0] - means[1]);
    ASSERT_GT(spread_now, cc.spreadThreshold);

    const auto mc = machine::MachineConfig::xeonE52630v4()
                        .withAvailable(6, 10, 6);
    const SimulationConfig trial =
        trialConfig(base(), ClusterConfig::trialSeconds,
                    ClusterConfig::trialWarmupEpochs);
    const auto arq = [] { return sched::makeScheduler("ARQ"); };

    // The victim: the app whose removal leaves the hot node coolest.
    std::size_t victim = 0;
    double victim_es = 1e300;
    for (std::size_t i = 0; i < probe.apps(hot).size(); ++i) {
        auto rest = probe.apps(hot);
        rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
        const double es = trialEntropy(mc, rest, trial, arq);
        if (es < victim_es) {
            victim_es = es;
            victim = i;
        }
    }

    // Its destination trial with the victim arriving warm (a free
    // migration) and cold (4 epochs, up to 0.25 degradation).
    auto warm = probe.apps(dest);
    warm.push_back(probe.apps(hot)[victim]);
    auto cold = warm;
    cold.back().coldEpochs = 4;
    cold.back().coldPenalty = 0.25;
    const double gain_free =
        spread_now - std::abs(victim_es - trialEntropy(mc, warm, trial, arq));
    const double gain_paid =
        spread_now - std::abs(victim_es - trialEntropy(mc, cold, trial, arq));

    // Free, the move clears the 0.01 margin; charged, it does not.
    EXPECT_GE(gain_free, 0.01);
    EXPECT_LT(gain_paid, 0.01);

    // So the rebalancer, which charges every move, keeps the app.
    cc.rounds = 2;
    auto cs = marginal(cc);
    EXPECT_TRUE(cs.run(base()).migrations.empty());
}

TEST(MigrationRegression, MigrationCostEpochsMetricSurfaced)
{
    // A strongly imbalanced fleet still migrates under the default
    // cost model, and every applied migration surfaces its charged
    // window through the cluster.migration_cost_epochs counter.
    ClusterConfig cc;
    cc.rounds = 3;
    cc.spreadThreshold = 0.01;
    ClusterScheduler cs(cc, "ARQ");
    const auto mc = machine::MachineConfig::xeonE52630v4()
                        .withAvailable(6, 10, 6);
    cs.addNode(mc, {lcAt(apps::xapian(), 0.85),
                    lcAt(apps::moses(), 0.6), be(apps::stream()),
                    be(apps::fluidanimate())});
    cs.addNode(mc, {lcAt(apps::sphinx(), 0.15)});
    cs.addNode(mc, {lcAt(apps::imgDnn(), 0.15)});

    obs::MetricsRegistry metrics;
    auto cfg = base();
    cfg.obs.metrics = &metrics;
    const auto res = cs.run(cfg);

    ASSERT_FALSE(res.migrations.empty());
    EXPECT_EQ(metrics.counter("cluster.migrations"),
              static_cast<double>(res.migrations.size()));
    // Each move is charged the 4-epoch cold window.
    EXPECT_EQ(metrics.counter("cluster.migration_cost_epochs"),
              static_cast<double>(res.migrations.size() * 4));
}

TEST(MigrationRegression, ColdStartWindowInflatesEarlyTail)
{
    // EpochSimulator-level: an app entering a run cold sees its
    // first coldEpochs epochs degraded, then rejoins the exact warm
    // path (same seed, same noise stream).
    const auto mc = machine::MachineConfig::xeonE52630v4()
                        .withAvailable(6, 10, 6);
    auto cold_app = lcAt(apps::xapian(), 0.3);
    cold_app.coldEpochs = 4;
    cold_app.coldPenalty = 0.5;

    SimulationConfig cfg;
    cfg.durationSeconds = 6.0;
    cfg.warmupEpochs = 0;

    EpochSimulator warm_sim(Node(mc, {lcAt(apps::xapian(), 0.3)}),
                            cfg);
    EpochSimulator cold_sim(Node(mc, {cold_app}), cfg);
    auto warm_sched = sched::makeScheduler("Unmanaged");
    auto cold_sched = sched::makeScheduler("Unmanaged");
    const auto warm = warm_sim.run(*warm_sched);
    const auto cold = cold_sim.run(*cold_sched);

    ASSERT_EQ(warm.epochs.size(), cold.epochs.size());
    // Inside the window the tail is strictly inflated...
    for (int e = 0; e < cold_app.coldEpochs; ++e) {
        const auto ue = static_cast<std::size_t>(e);
        EXPECT_GT(cold.epochs[ue].obs[0].p95Ms,
                  warm.epochs[ue].obs[0].p95Ms)
            << "epoch " << e;
    }
    // ...and once it closes (and no backlog accumulated at this
    // load), the cold run is indistinguishable from the warm one.
    const auto after =
        static_cast<std::size_t>(cold_app.coldEpochs);
    ASSERT_GT(warm.epochs.size(), after);
    for (std::size_t e = after; e < warm.epochs.size(); ++e)
        EXPECT_DOUBLE_EQ(cold.epochs[e].obs[0].p95Ms,
                         warm.epochs[e].obs[0].p95Ms)
            << "epoch " << e;
}

} // namespace
