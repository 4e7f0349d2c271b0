/**
 * @file
 * Trace determinism: the observability layer must not weaken the
 * exec layer's serial==parallel contract. A traced batch writes
 * byte-identical JSONL at 1 and N threads, repeated runs of one
 * fixed-seed simulation produce identical traces, and metric
 * totals match across thread counts.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "apps/catalog.hh"
#include "cluster/epoch_sim.hh"
#include "exec/scenario_runner.hh"
#include "exec/thread_pool.hh"
#include "obs/scope.hh"
#include "obs/trace_reader.hh"
#include "sched/registry.hh"

namespace
{

using namespace ahq;

cluster::SimulationConfig
shortConfig(std::uint64_t seed)
{
    cluster::SimulationConfig c;
    c.durationSeconds = 20.0;
    c.warmupEpochs = 10;
    c.seed = seed;
    return c;
}

std::vector<exec::ScenarioJob>
tracedBatch()
{
    std::vector<exec::ScenarioJob> jobs;
    std::uint64_t seed = 11;
    for (const auto &strategy : {"ARQ", "PARTIES", "CLITE"}) {
        for (double load : {0.3, 0.7}) {
            cluster::Node node(
                machine::MachineConfig::xeonE52630v4(),
                {cluster::lcAt(apps::xapian(), load),
                 cluster::lcAt(apps::moses(), 0.2),
                 cluster::be(apps::stream())});
            jobs.push_back({strategy, node, shortConfig(seed++),
                            std::string(strategy) + "@" +
                                std::to_string(int(load * 100))});
        }
    }
    return jobs;
}

std::string
runTraced(exec::ThreadPool &pool,
          const std::vector<exec::ScenarioJob> &jobs,
          obs::MetricsRegistry *metrics)
{
    obs::BufferTraceSink sink;
    obs::Scope scope;
    scope.sink = &sink;
    scope.metrics = metrics;
    exec::ScenarioRunner runner(&pool);
    runner.setObsScope(scope);
    runner.run(jobs);
    return sink.str();
}

TEST(TraceDeterminism, BatchTraceBytesIdenticalAcrossThreadCounts)
{
    const auto jobs = tracedBatch();
    exec::ThreadPool serial(1);
    exec::ThreadPool parallel(4);

    obs::MetricsRegistry m1, m4;
    const std::string t1 = runTraced(serial, jobs, &m1);
    const std::string t4 = runTraced(parallel, jobs, &m4);

    ASSERT_FALSE(t1.empty());
    EXPECT_EQ(t1, t4); // byte-for-byte

    // Metric totals match too (counters/histograms commute).
    EXPECT_DOUBLE_EQ(m1.counter("exec.scenarios"),
                     double(jobs.size()));
    EXPECT_DOUBLE_EQ(m1.counter("exec.scenarios"),
                     m4.counter("exec.scenarios"));
    EXPECT_DOUBLE_EQ(m1.counter("sim.epochs"),
                     m4.counter("sim.epochs"));
    EXPECT_DOUBLE_EQ(m1.counter("arq.move") + m1.counter("arq.hold") +
                         m1.counter("arq.rollback") +
                         m1.counter("arq.settle"),
                     m4.counter("arq.move") + m4.counter("arq.hold") +
                         m4.counter("arq.rollback") +
                         m4.counter("arq.settle"));
}

TEST(TraceDeterminism, BatchTraceIsOrderedByJobAndParses)
{
    const auto jobs = tracedBatch();
    exec::ThreadPool pool(4);
    obs::BufferTraceSink sink;
    obs::Scope scope;
    scope.sink = &sink;
    exec::ScenarioRunner runner(&pool);
    runner.setObsScope(scope);
    runner.run(jobs);

    // Every line parses and carries the schema version.
    std::istringstream in(sink.str());
    std::vector<obs::TraceEvent> events;
    obs::forEachTrace(in, [&](const obs::TraceEvent &ev, int) {
        events.push_back(ev);
    });
    ASSERT_FALSE(events.empty());
    for (const auto &ev : events)
        EXPECT_EQ(ev.num("v"), obs::kSchemaVersion);

    // scenario_start events appear in job order, tagged as asked.
    std::vector<std::string> starts;
    for (const auto &ev : events) {
        if (ev.type() == "scenario_start")
            starts.push_back(ev.str("scenario"));
    }
    ASSERT_EQ(starts.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(starts[i], jobs[i].tag);
}

TEST(TraceDeterminism, FixedSeedSimulationTraceIsReproducible)
{
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.5),
                        cluster::lcAt(apps::moses(), 0.2),
                        cluster::be(apps::stream())});

    auto trace_once = [&] {
        obs::BufferTraceSink sink;
        cluster::SimulationConfig cfg = shortConfig(99);
        cfg.obs.sink = &sink;
        cfg.obs.scenario = "golden";
        const auto arq = sched::makeScheduler("ARQ");
        cluster::EpochSimulator sim(node, cfg);
        sim.run(*arq);
        return sink.str();
    };

    const std::string a = trace_once();
    const std::string b = trace_once();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);

    // The trace tells a complete story: run_start, one epoch event
    // per epoch plus one ARQ decision per epoch after the first
    // (the scheduler reacts to the previous epoch), run_end.
    std::istringstream in(a);
    std::vector<obs::TraceEvent> events;
    obs::forEachTrace(in, [&](const obs::TraceEvent &ev, int) {
        events.push_back(ev);
    });
    ASSERT_GE(events.size(), 3u);
    EXPECT_EQ(events.front().type(), "run_start");
    EXPECT_EQ(events.back().type(), "run_end");
    std::size_t epochs = 0, decisions = 0;
    for (const auto &ev : events) {
        if (ev.type() == "epoch")
            ++epochs;
        if (ev.type() == "arq_decision")
            ++decisions;
        EXPECT_EQ(ev.str("scenario"), "golden");
    }
    EXPECT_EQ(epochs, std::size_t(
        events.front().num("epochs")));
    EXPECT_EQ(decisions, epochs - 1);
}

TEST(TraceDeterminism, UntracedRunsStayBitwiseEqualToTracedRuns)
{
    // Attaching telemetry must observe, never perturb: the
    // simulation results with and without a sink are identical.
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.6),
                        cluster::be(apps::stream())});

    const auto run_with = [&](obs::TraceSink *sink) {
        cluster::SimulationConfig cfg = shortConfig(7);
        cfg.obs.sink = sink;
        const auto arq = sched::makeScheduler("ARQ");
        cluster::EpochSimulator sim(node, cfg);
        return sim.run(*arq);
    };

    obs::BufferTraceSink sink;
    const auto plain = run_with(nullptr);
    const auto traced = run_with(&sink);
    EXPECT_DOUBLE_EQ(plain.meanES, traced.meanES);
    EXPECT_DOUBLE_EQ(plain.meanELc, traced.meanELc);
    EXPECT_DOUBLE_EQ(plain.meanEBe, traced.meanEBe);
    EXPECT_DOUBLE_EQ(plain.yieldValue, traced.yieldValue);
    EXPECT_EQ(plain.violations, traced.violations);
    EXPECT_FALSE(sink.lines().empty());
}

} // namespace
