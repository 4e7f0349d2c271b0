/**
 * @file
 * Randomized strict-audit sweep: every registered scheduler runs
 * over 100+ randomized colocation scenarios (app mix, loads,
 * machine size, seeds — all drawn from one fixed-seed RNG) with
 * AHQ_CHECK-strict semantics forced on. Any capacity, entropy or
 * controller-FSM invariant violation throws InvariantViolation and
 * fails the sweep. `ctest -L check` runs exactly this driver; CI
 * builds it under -DAHQ_SANITIZE=address,undefined as well.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/catalog.hh"
#include "check/check.hh"
#include "cluster/epoch_sim.hh"
#include "exec/scenario_runner.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "sched/arq.hh"
#include "sched/registry.hh"
#include "stats/rng.hh"

namespace
{

using namespace ahq;

const std::vector<std::string> kLcNames{
    "xapian", "moses", "img-dnn", "masstree", "sphinx", "silo"};
const std::vector<std::string> kBeNames{
    "fluidanimate", "streamcluster", "stream"};

TEST(AuditFuzz, AllSchedulersSurviveRandomScenariosStrict)
{
    stats::Rng rng(987654321); // fixed seed: the sweep is replayable
    obs::MetricsRegistry metrics;
    const auto &strategies = sched::allStrategyNames();
    ASSERT_GE(strategies.size(), 6u);

    int scenarios = 0;
    for (int trial = 0; trial < 16; ++trial) {
        const int n_lc = 1 + static_cast<int>(rng.uniformInt(3));
        const int n_be = static_cast<int>(rng.uniformInt(3));

        std::vector<cluster::ColocatedApp> colocated;
        for (int i = 0; i < n_lc; ++i) {
            colocated.push_back(cluster::lcAt(
                apps::byName(kLcNames[rng.uniformInt(
                    kLcNames.size())]),
                rng.uniform(0.05, 0.95)));
        }
        for (int i = 0; i < n_be; ++i) {
            colocated.push_back(cluster::be(apps::byName(
                kBeNames[rng.uniformInt(kBeNames.size())])));
        }

        // Keep the drawn machine feasible: every scheduler must be
        // able to give each app >= 1 core and >= 1 LLC way even
        // when it partitions per app.
        const int apps_total = n_lc + n_be;
        const int cores = std::max(
            apps_total + 1,
            4 + static_cast<int>(rng.uniformInt(7)));
        const int ways = std::max(
            apps_total + 1,
            8 + static_cast<int>(rng.uniformInt(13)));
        const int bw = 4 + static_cast<int>(rng.uniformInt(7));
        const auto mc = machine::MachineConfig::xeonE52630v4()
                            .withAvailable(cores, ways, bw);
        cluster::Node node(mc, colocated);

        cluster::SimulationConfig cfg;
        cfg.durationSeconds = 10.0;
        cfg.warmupEpochs = 4;
        cfg.seed = rng.uniformInt(1u << 30);
        cfg.checkMode = check::Mode::Strict;
        cfg.obs.metrics = &metrics;

        for (const auto &name : strategies) {
            auto sched = sched::makeScheduler(name);
            cluster::EpochSimulator sim(node, cfg);
            try {
                sim.run(*sched);
            } catch (const check::InvariantViolation &e) {
                FAIL() << name << " violated "
                       << e.violation().check << " in trial "
                       << trial << " (epoch "
                       << e.violation().epoch
                       << "): " << e.what();
            }
            ++scenarios;
        }
    }

    EXPECT_GE(scenarios, 100);
    EXPECT_EQ(metrics.counter("check.violations"), 0.0);
    // The sweep must actually have run audited epochs.
    EXPECT_GT(metrics.counter("sim.epochs"), 1000.0);
}

TEST(AuditFuzz, StrictAuditSurvivesParallelBatches)
{
    // Each EpochSimulator::run owns a private auditor, so a strict
    // batch fanned across the pool must behave exactly like the
    // serial runs above — no shared audit state, no cross-job
    // false positives.
    std::vector<exec::ScenarioJob> jobs;
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 20.0;
    cfg.warmupEpochs = 4;
    cfg.checkMode = check::Mode::Strict;
    for (const auto &name : sched::allStrategyNames()) {
        cfg.seed = 7u + jobs.size();
        cluster::Node node(
            machine::MachineConfig::xeonE52630v4().withAvailable(
                6, 12, 6),
            {cluster::lcAt(apps::xapian(), 0.6),
             cluster::lcAt(apps::moses(), 0.4),
             cluster::be(apps::stream())});
        jobs.push_back({name, node, cfg, ""});
    }

    exec::ThreadPool pool(4);
    exec::ScenarioRunner runner(&pool);
    std::vector<cluster::SimulationResult> results;
    EXPECT_NO_THROW(results = runner.run(jobs));
    EXPECT_EQ(results.size(), jobs.size());
}

TEST(AuditFuzz, ArqAblationsSurviveStrictAudit)
{
    // The rollback / shared-region ablations change which FSM
    // transitions are reachable; audit them all.
    stats::Rng rng(13579);
    for (const bool rollback : {true, false}) {
        for (const bool shared : {true, false}) {
            for (const int draw : {0, 1}) {
                sched::ArqConfig acfg;
                acfg.rollbackEnabled = rollback;
                acfg.sharedRegionEnabled = shared;
                sched::Arq arq(acfg);

                cluster::Node node(
                    machine::MachineConfig::xeonE52630v4()
                        .withAvailable(6, 12, 6),
                    {cluster::lcAt(apps::xapian(),
                                   rng.uniform(0.3, 0.9)),
                     cluster::lcAt(apps::moses(),
                                   rng.uniform(0.3, 0.9)),
                     cluster::be(apps::stream())});
                cluster::SimulationConfig cfg;
                cfg.durationSeconds = 30.0;
                cfg.warmupEpochs = 5;
                cfg.seed = rng.uniformInt(1u << 30);
                cfg.checkMode = check::Mode::Strict;

                cluster::EpochSimulator sim(node, cfg);
                EXPECT_NO_THROW(sim.run(arq))
                    << "rollback=" << rollback
                    << " shared=" << shared
                    << " draw=" << draw;
            }
        }
    }
}

} // namespace
