/**
 * @file
 * SpanProfiler + obs::Span: hierarchical path building, null-prof
 * no-op, merge commutativity, deterministic flush (wallClock
 * gating), quantiles, and the cross-layer contracts — epoch
 * simulator span counts match the run's epoch count, child wall
 * time never exceeds its parent, and ScenarioRunner span-bearing
 * traces stay byte-identical at any pool size.
 */

#include <gtest/gtest.h>

#include "apps/catalog.hh"
#include "cluster/epoch_sim.hh"
#include "exec/scenario_runner.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace_reader.hh"
#include "obs/trace_sink.hh"
#include "sched/registry.hh"

namespace
{

using namespace ahq;
using obs::Span;
using obs::SpanProfiler;

TEST(Span, PathsFollowTheNestingStack)
{
    SpanProfiler prof;
    {
        Span run(&prof, "run");
        for (int i = 0; i < 3; ++i) {
            Span epoch(&prof, "epoch");
            Span decide(&prof, "decide");
        }
    }
    const auto snap = prof.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap.at("run").count, 1u);
    EXPECT_EQ(snap.at("run/epoch").count, 3u);
    EXPECT_EQ(snap.at("run/epoch/decide").count, 3u);
}

TEST(Span, SequentialRootsDoNotNest)
{
    SpanProfiler prof;
    {
        Span a(&prof, "first");
    }
    {
        Span b(&prof, "second");
    }
    const auto snap = prof.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap.count("first"), 1u);
    EXPECT_EQ(snap.count("second"), 1u);
}

TEST(Span, NullProfilerIsANoOp)
{
    // The profiler-off contract: a null prof records nothing and
    // never touches the thread-local stack.
    SpanProfiler prof;
    {
        Span outer(&prof, "outer");
        Span off(static_cast<SpanProfiler *>(nullptr), "ghost");
        Span inner(&prof, "inner");
    }
    const auto snap = prof.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    // "ghost" neither recorded nor inserted into the path.
    EXPECT_EQ(snap.count("outer"), 1u);
    EXPECT_EQ(snap.count("outer/inner"), 1u);
    obs::Scope scope; // default scope: prof == nullptr
    Span viaScope(scope, "also_off");
    EXPECT_FALSE(scope.profiling());
}

TEST(Span, ForeignProfilerStartsAFreshRoot)
{
    // A span targeting a different profiler than the innermost
    // open one must not inherit the foreign prefix — this is what
    // keeps ThreadPool- or Fleet-level profilers out of job
    // hierarchies.
    SpanProfiler outer_prof, inner_prof;
    {
        Span outer(&outer_prof, "outer");
        {
            Span inner(&inner_prof, "inner");
            Span deeper(&inner_prof, "deeper");
        }
        Span back(&outer_prof, "back");
    }
    EXPECT_EQ(inner_prof.snapshot().count("inner"), 1u);
    EXPECT_EQ(inner_prof.snapshot().count("inner/deeper"), 1u);
    const auto outer_snap = outer_prof.snapshot();
    EXPECT_EQ(outer_snap.count("outer"), 1u);
    EXPECT_EQ(outer_snap.count("outer/back"), 1u);
}

TEST(SpanProfiler, MergeIsCommutative)
{
    auto fill = [](SpanProfiler &p, int offset) {
        for (int i = 0; i < 5; ++i) {
            p.record("a", static_cast<std::uint64_t>(
                              100 * (i + offset) + 1));
            p.record("a/b", static_cast<std::uint64_t>(i + 1));
        }
    };
    SpanProfiler p1, p2, left, right;
    fill(p1, 0);
    fill(p2, 7);
    left.merge(p1);
    left.merge(p2);
    right.merge(p2);
    right.merge(p1);

    const auto sl = left.snapshot();
    const auto sr = right.snapshot();
    ASSERT_EQ(sl.size(), sr.size());
    for (const auto &[path, st] : sl) {
        const auto &other = sr.at(path);
        EXPECT_EQ(st.count, other.count);
        EXPECT_EQ(st.totalNs, other.totalNs);
        EXPECT_EQ(st.maxNs, other.maxNs);
        EXPECT_EQ(st.buckets, other.buckets);
    }
}

TEST(SpanProfiler, QuantilesAreDeterministicAndBounded)
{
    SpanProfiler p;
    for (std::uint64_t ns : {10u, 100u, 1000u, 10000u, 100000u})
        p.record("x", ns);
    const auto st = p.snapshot().at("x");
    EXPECT_EQ(st.count, 5u);
    EXPECT_EQ(st.maxNs, 100000u);
    // Quantiles never exceed the observed max and are monotone.
    EXPECT_LE(st.quantileNs(0.5), st.quantileNs(0.99));
    EXPECT_LE(st.quantileNs(0.99), st.maxNs);
    // A single-value distribution: every quantile is that value.
    SpanProfiler single;
    single.record("y", 1000);
    const auto sy = single.snapshot().at("y");
    EXPECT_EQ(sy.quantileNs(0.5), 1000u);
    EXPECT_EQ(sy.quantileNs(0.99), 1000u);
}

TEST(SpanProfiler, FlushWithoutWallClockIsByteDeterministic)
{
    // Same counts, different timings -> identical bytes, because
    // wallClock=false strips every timing field. This is the exact
    // property the sweep/chaos byte-identity contract rides on.
    SpanProfiler fast, slow;
    fast.record("run", 10);
    fast.record("run/epoch", 1);
    fast.record("run/epoch", 2);
    slow.record("run", 99999);
    slow.record("run/epoch", 12345);
    slow.record("run/epoch", 54321);

    auto flushed = [](const SpanProfiler &p) {
        obs::BufferTraceSink sink;
        obs::Scope scope;
        scope.sink = &sink;
        scope.scenario = "t";
        p.flush(scope);
        return sink.str();
    };
    EXPECT_EQ(flushed(fast), flushed(slow));

    // And the events carry the hierarchy fields.
    obs::BufferTraceSink sink;
    obs::Scope scope;
    scope.sink = &sink;
    scope.scenario = "t";
    fast.flush(scope);
    const auto lines = sink.lines();
    ASSERT_EQ(lines.size(), 2u);
    const auto root = obs::parseTraceLine(lines[0]);
    EXPECT_EQ(root.type(), "span");
    EXPECT_EQ(root.str("path"), "run");
    EXPECT_EQ(root.str("name"), "run");
    EXPECT_FALSE(root.has("parent"));
    EXPECT_EQ(root.num("depth"), 0.0);
    EXPECT_EQ(root.num("count"), 1.0);
    EXPECT_FALSE(root.has("total_ms"));
    const auto child = obs::parseTraceLine(lines[1]);
    EXPECT_EQ(child.str("path"), "run/epoch");
    EXPECT_EQ(child.str("name"), "epoch");
    EXPECT_EQ(child.str("parent"), "run");
    EXPECT_EQ(child.num("depth"), 1.0);
    EXPECT_EQ(child.num("count"), 2.0);
}

TEST(SpanProfiler, FlushWithWallClockCarriesTimingFields)
{
    SpanProfiler p;
    p.record("run", 2'000'000); // 2 ms
    p.record("run", 4'000'000); // 4 ms
    obs::BufferTraceSink sink;
    obs::MetricsRegistry metrics;
    obs::Scope scope;
    scope.sink = &sink;
    scope.metrics = &metrics;
    scope.wallClock = true;
    p.flush(scope);

    const auto ev = obs::parseTraceLine(sink.lines().at(0));
    EXPECT_DOUBLE_EQ(ev.num("total_ms"), 6.0);
    EXPECT_DOUBLE_EQ(ev.num("mean_ms"), 3.0);
    EXPECT_DOUBLE_EQ(ev.num("max_ms"), 4.0);
    EXPECT_GT(ev.num("p99_ms"), 0.0);
    // Metrics ride along: a calls counter and a duration histogram.
    EXPECT_DOUBLE_EQ(metrics.counter("prof.run.calls"), 2.0);
    EXPECT_EQ(metrics.histogram("prof.run.ms").total, 2u);
}

TEST(SpanProfiler, EpochSimSpanCountsMatchTheRun)
{
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.5),
                        cluster::be(apps::stream())});
    cluster::SimulationConfig cfg;
    cfg.epochSeconds = 0.5;
    cfg.durationSeconds = 10.0;
    cfg.warmupEpochs = 0;
    SpanProfiler prof;
    cfg.obs.prof = &prof;

    const auto sched = sched::makeScheduler("ARQ");
    cluster::EpochSimulator sim(node, cfg);
    const auto res = sim.run(*sched);

    const auto snap = prof.snapshot();
    ASSERT_EQ(snap.count("run"), 1u);
    EXPECT_EQ(snap.at("run").count, 1u);
    ASSERT_EQ(snap.count("run/epoch"), 1u);
    EXPECT_EQ(snap.at("run/epoch").count, res.epochs.size());
    // Every epoch measures; all but the first decide.
    EXPECT_EQ(snap.at("run/epoch/measure").count,
              res.epochs.size());
    EXPECT_EQ(snap.at("run/epoch/decide").count,
              res.epochs.size() - 1);

    // Wall-time consistency: a child's total can never exceed its
    // parent's (spans are strictly nested).
    for (const auto &[path, st] : snap) {
        const auto slash = path.rfind('/');
        if (slash == std::string::npos)
            continue;
        const auto parent = snap.find(path.substr(0, slash));
        ASSERT_NE(parent, snap.end()) << path;
        EXPECT_LE(st.totalNs, parent->second.totalNs) << path;
    }
}

TEST(SpanProfiler, ProfilingNeverPerturbsResults)
{
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.6),
                        cluster::be(apps::stream())});
    auto run_with = [&](SpanProfiler *prof) {
        cluster::SimulationConfig cfg;
        cfg.epochSeconds = 0.5;
        cfg.durationSeconds = 8.0;
        cfg.warmupEpochs = 0;
        cfg.seed = 7;
        cfg.obs.prof = prof;
        const auto arq = sched::makeScheduler("ARQ");
        cluster::EpochSimulator sim(node, cfg);
        return sim.run(*arq);
    };
    SpanProfiler prof;
    const auto plain = run_with(nullptr);
    const auto profiled = run_with(&prof);
    EXPECT_DOUBLE_EQ(plain.meanES, profiled.meanES);
    EXPECT_DOUBLE_EQ(plain.yieldValue, profiled.yieldValue);
    EXPECT_EQ(plain.violations, profiled.violations);
    EXPECT_FALSE(prof.snapshot().empty());
}

TEST(SpanProfiler, RunnerTracesAreByteIdenticalAcrossPoolSizes)
{
    // Span events ride the per-job buffers, so a profiled traced
    // batch must produce the same bytes at 1 and 4 workers.
    std::vector<exec::ScenarioJob> jobs;
    cluster::SimulationConfig cfg;
    cfg.epochSeconds = 0.5;
    cfg.durationSeconds = 5.0;
    cfg.warmupEpochs = 0;
    for (int j = 0; j < 4; ++j) {
        cfg.seed = static_cast<std::uint64_t>(j + 1);
        cluster::Node node(
            machine::MachineConfig::xeonE52630v4(),
            {cluster::lcAt(apps::xapian(), 0.2 * (j + 1)),
             cluster::be(apps::stream())});
        jobs.push_back({"ARQ", node, cfg,
                        "job" + std::to_string(j)});
    }

    auto traced = [&](int threads) {
        exec::ThreadPool pool(threads);
        exec::ScenarioRunner runner(&pool);
        obs::BufferTraceSink sink;
        SpanProfiler prof;
        obs::Scope scope;
        scope.sink = &sink;
        scope.prof = &prof; // wallClock stays false
        runner.setObsScope(scope);
        runner.run(jobs);
        EXPECT_FALSE(prof.snapshot().empty());
        return sink.str();
    };
    const auto serial = traced(1);
    const auto parallel = traced(4);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("\"type\":\"span\""),
              std::string::npos);
}

} // namespace
