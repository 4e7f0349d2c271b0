/**
 * @file
 * The exec layer's determinism contract: batches, oracle searches
 * and fleet runs must be bitwise identical at 1 and N threads.
 * Every scenario owns its SimulationConfig::seed, so scheduling
 * interleaving must be unobservable in the results.
 */

#include <gtest/gtest.h>

#include "apps/catalog.hh"
#include "cluster/fleet.hh"
#include "cluster/oracle.hh"
#include "exec/scenario_runner.hh"
#include "exec/thread_pool.hh"
#include "sched/registry.hh"

namespace
{

using namespace ahq;
using cluster::SimulationConfig;
using cluster::SimulationResult;

SimulationConfig
shortConfig(std::uint64_t seed)
{
    SimulationConfig c;
    c.durationSeconds = 30.0;
    c.warmupEpochs = 20;
    c.seed = seed;
    return c;
}

std::vector<exec::ScenarioJob>
batch()
{
    std::vector<exec::ScenarioJob> jobs;
    std::uint64_t seed = 7;
    for (const auto &strategy :
         {"Unmanaged", "PARTIES", "CLITE", "ARQ"}) {
        for (double load : {0.2, 0.5, 0.8}) {
            cluster::Node node(
                machine::MachineConfig::xeonE52630v4(),
                {cluster::lcAt(apps::xapian(), load),
                 cluster::lcAt(apps::moses(), 0.2),
                 cluster::be(apps::stream())});
            jobs.push_back({strategy, node, shortConfig(seed++), ""});
        }
    }
    return jobs;
}

void
expectIdentical(const SimulationResult &a, const SimulationResult &b)
{
    EXPECT_DOUBLE_EQ(a.meanELc, b.meanELc);
    EXPECT_DOUBLE_EQ(a.meanEBe, b.meanEBe);
    EXPECT_DOUBLE_EQ(a.meanES, b.meanES);
    EXPECT_DOUBLE_EQ(a.yieldValue, b.yieldValue);
    EXPECT_EQ(a.violations, b.violations);
    ASSERT_EQ(a.meanP95Ms.size(), b.meanP95Ms.size());
    for (std::size_t i = 0; i < a.meanP95Ms.size(); ++i)
        EXPECT_DOUBLE_EQ(a.meanP95Ms[i], b.meanP95Ms[i]);
    ASSERT_EQ(a.meanIpc.size(), b.meanIpc.size());
    for (std::size_t i = 0; i < a.meanIpc.size(); ++i)
        EXPECT_DOUBLE_EQ(a.meanIpc[i], b.meanIpc[i]);
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t e = 0; e < a.epochs.size(); ++e) {
        const auto &ea = a.epochs[e];
        const auto &eb = b.epochs[e];
        EXPECT_DOUBLE_EQ(ea.entropy.eS, eb.entropy.eS);
        ASSERT_EQ(ea.obs.size(), eb.obs.size());
        for (std::size_t i = 0; i < ea.obs.size(); ++i) {
            EXPECT_DOUBLE_EQ(ea.obs[i].p95Ms, eb.obs[i].p95Ms);
            EXPECT_DOUBLE_EQ(ea.obs[i].ipc, eb.obs[i].ipc);
        }
        ASSERT_EQ(ea.layout.numRegions(), eb.layout.numRegions());
        for (int r = 0; r < ea.layout.numRegions(); ++r)
            EXPECT_EQ(ea.layout.region(r).res, eb.layout.region(r).res);
    }
}

TEST(ParallelDeterminism, ScenarioRunnerMatchesSerialFieldByField)
{
    const auto jobs = batch();

    exec::ThreadPool serial_pool(1);
    exec::ThreadPool parallel_pool(4);
    const auto serial =
        exec::ScenarioRunner(&serial_pool).run(jobs);
    const auto parallel =
        exec::ScenarioRunner(&parallel_pool).run(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdentical(serial[i], parallel[i]);

    // The batch also matches running each job by hand.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto sched = sched::makeScheduler(jobs[i].strategy);
        cluster::EpochSimulator sim(jobs[i].node, jobs[i].config);
        expectIdentical(sim.run(*sched), parallel[i]);
    }
}

TEST(ParallelDeterminism, OracleSearchMatchesSerial)
{
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.5),
                        cluster::lcAt(apps::moses(), 0.2),
                        cluster::be(apps::stream())});

    exec::ThreadPool serial_pool(1);
    exec::ThreadPool parallel_pool(4);
    cluster::OracleConfig serial_cfg;
    serial_cfg.wayStep = 4;
    serial_cfg.pool = &serial_pool;
    cluster::OracleConfig parallel_cfg = serial_cfg;
    parallel_cfg.pool = &parallel_pool;

    const auto iso_s =
        cluster::bestIsolatedPartition(node, serial_cfg);
    const auto iso_p =
        cluster::bestIsolatedPartition(node, parallel_cfg);
    EXPECT_EQ(iso_s.evaluated, iso_p.evaluated);
    EXPECT_DOUBLE_EQ(iso_s.report.eS, iso_p.report.eS);
    EXPECT_DOUBLE_EQ(iso_s.report.eLc, iso_p.report.eLc);
    EXPECT_DOUBLE_EQ(iso_s.report.eBe, iso_p.report.eBe);
    EXPECT_EQ(iso_s.layout.toString(), iso_p.layout.toString());

    const auto hyb_s =
        cluster::bestHybridPartition(node, serial_cfg);
    const auto hyb_p =
        cluster::bestHybridPartition(node, parallel_cfg);
    EXPECT_EQ(hyb_s.evaluated, hyb_p.evaluated);
    EXPECT_DOUBLE_EQ(hyb_s.report.eS, hyb_p.report.eS);
    EXPECT_EQ(hyb_s.layout.toString(), hyb_p.layout.toString());
    EXPECT_GT(hyb_s.evaluated, 0);
}

TEST(ParallelDeterminism, FleetRunMatchesSerial)
{
    auto build = [] {
        cluster::Fleet fleet;
        for (double load : {0.2, 0.5, 0.8}) {
            fleet.addNode(
                cluster::Node(
                    machine::MachineConfig::xeonE52630v4(),
                    {cluster::lcAt(apps::xapian(), load),
                     cluster::lcAt(apps::imgDnn(), 0.2),
                     cluster::be(apps::fluidanimate())}),
                sched::makeScheduler("ARQ"));
        }
        return fleet;
    };

    exec::ThreadPool serial_pool(1);
    exec::ThreadPool parallel_pool(4);
    auto f1 = build();
    auto f2 = build();
    const auto r1 = f1.run(shortConfig(42), &serial_pool);
    const auto r2 = f2.run(shortConfig(42), &parallel_pool);

    EXPECT_DOUBLE_EQ(r1.eLc, r2.eLc);
    EXPECT_DOUBLE_EQ(r1.eBe, r2.eBe);
    EXPECT_DOUBLE_EQ(r1.eS, r2.eS);
    EXPECT_DOUBLE_EQ(r1.yieldValue, r2.yieldValue);
    EXPECT_EQ(r1.violations, r2.violations);
    ASSERT_EQ(r1.nodes.size(), r2.nodes.size());
    for (std::size_t n = 0; n < r1.nodes.size(); ++n)
        expectIdentical(r1.nodes[n], r2.nodes[n]);
}

} // namespace
