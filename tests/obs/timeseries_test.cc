/**
 * @file
 * Tests for the deterministic time-series engine (obs/timeseries)
 * and the seeded head-based trace sampling (cluster/epoch_sim):
 * bucket fold correctness, order-independence, the flushed bytes,
 * sampler purity, and the zero-alloc steady state on
 * sampling-rejected epochs — counted, not reviewed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/catalog.hh"
#include "cluster/epoch_sim.hh"
#include "obs/alloc.hh"
#include "obs/scope.hh"
#include "obs/span.hh"
#include "obs/timeseries.hh"
#include "obs/trace_reader.hh"
#include "obs/trace_sink.hh"
#include "sched/registry.hh"

namespace
{

using namespace ahq;
using obs::TimeSeries;
using obs::TimeSeriesRegistry;

/** Deterministic pseudo-signal (no RNG needed). */
double
signalAt(int e)
{
    return static_cast<double>((e * 37) % 17) * 0.25;
}

void
expectSameState(const TimeSeries &a, const TimeSeries &b)
{
    EXPECT_EQ(a.stride(), b.stride());
    EXPECT_EQ(a.maxEpoch(), b.maxEpoch());
    EXPECT_EQ(a.points(), b.points());
    ASSERT_EQ(a.bucketsInUse(), b.bucketsInUse());
    for (int i = 0; i < a.bucketsInUse(); ++i) {
        EXPECT_EQ(a.bucket(i).count, b.bucket(i).count) << i;
        EXPECT_EQ(a.bucket(i).sum, b.bucket(i).sum) << i;
        if (a.bucket(i).count > 0) {
            EXPECT_EQ(a.bucket(i).min, b.bucket(i).min) << i;
            EXPECT_EQ(a.bucket(i).max, b.bucket(i).max) << i;
        }
    }
}

TEST(TimeSeries, RecordsIntoStrideOneBuckets)
{
    TimeSeries ts;
    ts.record(0, 1.0);
    ts.record(1, 2.0);
    ts.record(1, 4.0);
    ts.record(3, 8.0);

    EXPECT_EQ(ts.stride(), 1);
    EXPECT_EQ(ts.maxEpoch(), 3);
    EXPECT_EQ(ts.bucketsInUse(), 4);
    EXPECT_EQ(ts.points(), 4u);

    EXPECT_EQ(ts.bucket(0).count, 1u);
    EXPECT_EQ(ts.bucket(0).min, 1.0);
    EXPECT_EQ(ts.bucket(0).max, 1.0);
    EXPECT_EQ(ts.bucket(1).count, 2u);
    EXPECT_EQ(ts.bucket(1).min, 2.0);
    EXPECT_EQ(ts.bucket(1).max, 4.0);
    EXPECT_EQ(ts.bucket(1).sum, 6.0);
    EXPECT_EQ(ts.bucket(1).mean(), 3.0);
    EXPECT_EQ(ts.bucket(2).count, 0u);
    EXPECT_EQ(ts.bucket(3).count, 1u);
    EXPECT_EQ(ts.bucket(3).sum, 8.0);

    // Negative epochs are ignored, not folded or counted.
    ts.record(-1, 100.0);
    EXPECT_EQ(ts.points(), 4u);
    EXPECT_EQ(ts.maxEpoch(), 3);
}

TEST(TimeSeries, FoldsOnOverflowDoublingStride)
{
    TimeSeries ts;
    for (int e = 0; e < 256; ++e)
        ts.record(e, static_cast<double>(e));

    // 256 epochs into 128 buckets: one fold, two epochs per bucket.
    EXPECT_EQ(ts.stride(), 2);
    EXPECT_EQ(ts.bucketsInUse(), 128);
    EXPECT_EQ(ts.points(), 256u);
    for (int i = 0; i < 128; ++i) {
        EXPECT_EQ(ts.bucket(i).count, 2u) << i;
        EXPECT_EQ(ts.bucket(i).min, 2.0 * i) << i;
        EXPECT_EQ(ts.bucket(i).max, 2.0 * i + 1.0) << i;
        EXPECT_EQ(ts.bucket(i).sum, 4.0 * i + 1.0) << i;
    }

    // A distant epoch folds repeatedly in one record() call.
    ts.record(2047, 9.0);
    EXPECT_EQ(ts.stride(), 16);
    EXPECT_EQ(ts.maxEpoch(), 2047);
    EXPECT_EQ(ts.bucketsInUse(), 128);
    EXPECT_EQ(ts.bucket(0).count, 16u);  // epochs 0..15
    EXPECT_EQ(ts.bucket(15).count, 16u); // epochs 240..255
    EXPECT_EQ(ts.bucket(16).count, 0u);
    EXPECT_EQ(ts.bucket(127).count, 1u); // epoch 2047
    EXPECT_EQ(ts.bucket(127).min, 9.0);
}

TEST(TimeSeries, FinalStateIndependentOfRecordingOrder)
{
    // The fold cascade runs at different moments depending on
    // arrival order; the final state must not care (every bucket
    // aggregate commutes).
    TimeSeries forward, reverse, interleaved;
    const int kEpochs = 1024;
    for (int e = 0; e < kEpochs; ++e)
        forward.record(e, signalAt(e));
    for (int e = kEpochs - 1; e >= 0; --e)
        reverse.record(e, signalAt(e));
    for (int e = 0; e < kEpochs; e += 2)
        interleaved.record(e, signalAt(e));
    for (int e = 1; e < kEpochs; e += 2)
        interleaved.record(e, signalAt(e));

    expectSameState(forward, reverse);
    expectSameState(forward, interleaved);
}

TEST(TimeSeriesRegistry, FlushEmitsSortedSchemaV1Events)
{
    TimeSeriesRegistry reg;
    // Inserted out of sorted order on purpose.
    reg.record("zeta", "e_s", 0, 0.5);
    reg.record("alpha", "e_s", 0, 0.25);
    reg.record("alpha", "e_s", 1, 0.75);
    reg.record("alpha", "a_series", 130, 1.5);

    obs::BufferTraceSink sink;
    obs::MetricsRegistry metrics;
    obs::Scope scope;
    scope.sink = &sink;
    scope.metrics = &metrics;
    reg.flush(scope);

    const auto lines = sink.lines();
    ASSERT_EQ(lines.size(), 3u);

    const auto first = obs::parseTraceLine(lines[0]);
    EXPECT_EQ(first.type(), "series");
    EXPECT_EQ(first.str("scenario"), "alpha");
    EXPECT_EQ(first.str("series"), "a_series");
    const auto second = obs::parseTraceLine(lines[1]);
    EXPECT_EQ(second.str("scenario"), "alpha");
    EXPECT_EQ(second.str("series"), "e_s");
    const auto third = obs::parseTraceLine(lines[2]);
    EXPECT_EQ(third.str("scenario"), "zeta");

    // Field content round-trips: alpha/e_s has two stride-1
    // buckets in use.
    EXPECT_EQ(second.num("stride"), 1.0);
    EXPECT_EQ(second.num("epochs"), 2.0);
    EXPECT_EQ(second.num("capacity"), 128.0);
    EXPECT_EQ(second.num("points"), 2.0);
    EXPECT_EQ(second.nums("n"), (std::vector<double>{1, 1}));
    EXPECT_EQ(second.nums("min"),
              (std::vector<double>{0.25, 0.75}));
    EXPECT_EQ(second.nums("max"),
              (std::vector<double>{0.25, 0.75}));
    EXPECT_EQ(second.nums("sum"),
              (std::vector<double>{0.25, 0.75}));

    // alpha/a_series: epoch 130 past capacity 128 folded to stride
    // 2; empty buckets render as zeros, disambiguated by n.
    EXPECT_EQ(first.num("stride"), 2.0);
    std::vector<double> n(66, 0.0), sum(66, 0.0);
    n.back() = 1;
    sum.back() = 1.5;
    EXPECT_EQ(first.nums("n"), n);
    EXPECT_EQ(first.nums("sum"), sum);

    EXPECT_EQ(metrics.counter("ts.series"), 3.0);
    EXPECT_EQ(metrics.counter("ts.points"), 4.0);
}

TEST(EpochTraceSampling, PureSeededDecision)
{
    // Pure function of (seed, epoch, rate): stable across calls.
    for (int e = 0; e < 100; ++e) {
        EXPECT_EQ(cluster::epochTraceSampled(42, e, 0.3),
                  cluster::epochTraceSampled(42, e, 0.3));
    }
    // Boundary rates short-circuit.
    for (int e = 0; e < 100; ++e) {
        EXPECT_TRUE(cluster::epochTraceSampled(42, e, 1.0));
        EXPECT_FALSE(cluster::epochTraceSampled(42, e, 0.0));
    }
    EXPECT_FALSE(cluster::epochTraceSampled(42, -1, 0.5));

    // The kept fraction tracks the rate (seeded, not exact).
    int kept = 0;
    const int kEpochs = 10000;
    for (int e = 0; e < kEpochs; ++e)
        kept += cluster::epochTraceSampled(7, e, 0.3) ? 1 : 0;
    EXPECT_GT(kept, kEpochs * 25 / 100);
    EXPECT_LT(kept, kEpochs * 35 / 100);

    // Different seeds pick different subsets.
    bool differs = false;
    for (int e = 0; e < 100 && !differs; ++e) {
        differs = cluster::epochTraceSampled(1, e, 0.5) !=
            cluster::epochTraceSampled(2, e, 0.5);
    }
    EXPECT_TRUE(differs);
}

cluster::Node
smallNode()
{
    return cluster::Node(
        machine::MachineConfig::xeonE52630v4().withAvailable(6, 12,
                                                             6),
        {cluster::lcAt(apps::xapian(), 0.4),
         cluster::be(apps::stream())});
}

std::size_t
countType(const std::string &trace, const std::string &type)
{
    const std::string needle = "\"type\":\"" + type + "\"";
    std::size_t n = 0;
    for (auto pos = trace.find(needle); pos != std::string::npos;
         pos = trace.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(EpochTraceSampling, SimulatorTraceIsDeterministicSubset)
{
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 20.0;
    cfg.warmupEpochs = 4;
    cfg.seed = 11;

    const auto node = smallNode();
    auto run_with = [&](double rate) {
        obs::BufferTraceSink sink;
        cluster::SimulationConfig c = cfg;
        c.obs.sink = &sink;
        c.obs.scenario = "s";
        c.traceSampleRate = rate;
        const auto sched = sched::makeScheduler("ARQ");
        cluster::EpochSimulator sim(node, c);
        sim.run(*sched);
        return sink.str();
    };

    const std::string full = run_with(1.0);
    const std::string sampled = run_with(0.4);
    // Seeded decision: re-running reproduces the exact bytes.
    EXPECT_EQ(sampled, run_with(0.4));

    const auto total = countType(full, "epoch");
    const auto kept = countType(sampled, "epoch");
    EXPECT_GT(kept, 0u);
    EXPECT_LT(kept, total);
    // Head gating never drops the run frame.
    EXPECT_EQ(countType(sampled, "run_start"), 1u);
    EXPECT_EQ(countType(sampled, "run_end"), 1u);
    // The sampled run declares its rate; the full run's trace is
    // byte-identical to a build that never heard of sampling.
    EXPECT_NE(sampled.find("\"trace_sample\":0.4"),
              std::string::npos);
    EXPECT_EQ(full.find("trace_sample"), std::string::npos);
}

TEST(EpochTraceSampling, RejectedEpochsAddNoAllocations)
{
    if (!obs::allocCountingEnabled())
        GTEST_SKIP() << "sanitizer build: counting compiled out";

    // The acceptance claim: when sampling rejects an epoch, the
    // epoch loop does the exact same allocation work as a run with
    // tracing off — the muted-scope transition happens once and
    // the rejected steady state assembles nothing. Measured via
    // the span profiler's per-path alloc counters.
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 20.0;
    cfg.warmupEpochs = 4;
    cfg.seed = 3;

    const auto node = smallNode();
    auto epoch_allocs = [&](bool sampled_out_tracing) {
        obs::SpanProfiler prof;
        obs::BufferTraceSink sink;
        obs::TimeSeriesRegistry reg;
        cluster::SimulationConfig c = cfg;
        c.obs.prof = &prof;
        // Same scenario tag in both arms (a short, SSO-sized one,
        // like production per-job tags): the comparison isolates
        // the sink + registry + sampling gate, nothing else.
        c.obs.scenario = "s";
        if (sampled_out_tracing) {
            c.obs.sink = &sink;
            c.obs.series = &reg;
            c.traceSampleRate = 0.0;
        }
        const auto sched = sched::makeScheduler("ARQ");
        cluster::EpochSimulator sim(node, c);
        sim.run(*sched);
        const auto snap = prof.snapshot();
        return snap.at("run/epoch").allocs;
    };

    // First simulation in a process pays a couple of one-time
    // lazy-init allocations inside epoch spans; warm those up so
    // both measured arms see the same steady state.
    (void)epoch_allocs(false);
    const auto baseline = epoch_allocs(false);
    const auto rejected = epoch_allocs(true);
    EXPECT_EQ(rejected, baseline)
        << "sampling-rejected epochs allocated beyond the "
           "tracing-off baseline";
}

} // namespace
