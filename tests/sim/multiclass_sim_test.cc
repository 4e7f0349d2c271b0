/**
 * @file
 * Tests for the multi-class region simulator, the library's one
 * request-level DES: its single-class cases cross-validate the
 * analytic M/M/c formulas, its BE cases the preemptive priority the
 * analytic LcPriority contention model assumes.
 */

#include <gtest/gtest.h>

#include "perf/queueing.hh"
#include "sim/multiclass_sim.hh"
#include "stats/percentile.hh"
#include "stats/rng.hh"
#include "stats/summary.hh"

namespace
{

using namespace ahq::sim;
using ahq::stats::exactPercentile;
using ahq::stats::Rng;

/** One LC class that may occupy all c servers of a shared pool. */
LcClassSpec
mmcClass(double lambda, double mu, int c)
{
    LcClassSpec spec;
    spec.arrivalRate = lambda;
    spec.serviceRate = mu;
    spec.maxConcurrency = c;
    return spec;
}

TEST(MultiClass, ConservesRequests)
{
    MultiClassSimulator sim({mmcClass(10.0, 8.0, 2)}, 2, 0.0);
    Rng rng(1);
    const auto res = sim.run(200.0, rng);
    EXPECT_GT(res.lcArrivals, 0u);
    // Every arrival either completed or is still in the system.
    EXPECT_EQ(res.lcArrivals,
              res.lcSojournTimes[0].size() + res.lcInSystem);
}

TEST(MultiClass, MeanSojournMatchesMmc)
{
    const int c = 3;
    const double lambda = 2.0, mu = 1.0;
    MultiClassSimulator sim({mmcClass(lambda, mu, c)}, c, 0.0);
    Rng rng(7);
    const auto res = sim.run(20000.0, rng, 100.0);
    const double analytic = ahq::perf::mmcMeanSojourn(c, lambda, mu);
    const double measured = ahq::stats::mean(res.lcSojournTimes[0]);
    EXPECT_NEAR(measured / analytic, 1.0, 0.05);
}

class MultiClassMmc
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(MultiClassMmc, P95MatchesAnalytic)
{
    const int c = std::get<0>(GetParam());
    const double rho = std::get<1>(GetParam());
    const double mu = 1.0;
    const double lambda = rho * c * mu;

    MultiClassSimulator sim({mmcClass(lambda, mu, c)}, c, 0.0);
    Rng rng(42 + c);
    const auto res = sim.run(30000.0, rng, 200.0);
    ASSERT_GT(res.lcSojournTimes[0].size(), 1000u);

    const double analytic =
        ahq::perf::mmcSojournPercentile(c, lambda, mu, 0.95);
    const double measured = exactPercentile(res.lcSojournTimes[0], 95.0);
    // Tail estimates near saturation have much higher sampling
    // variance (long autocorrelated busy periods).
    const double tol = rho >= 0.8 ? 0.20 : 0.08;
    EXPECT_NEAR(measured / analytic, 1.0, tol)
        << "c=" << c << " rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiClassMmc,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(0.3, 0.6, 0.85)));

TEST(MultiClass, BusyTimeMatchesUtilization)
{
    // Aggregate busy time / (servers * duration) ~ rho.
    const int c = 2;
    const double lambda = 1.2, mu = 1.0;
    MultiClassSimulator sim({mmcClass(lambda, mu, c)}, c, 0.0);
    Rng rng(23);
    const double duration = 5000.0;
    const auto res = sim.run(duration, rng);
    const double rho = lambda / (c * mu);
    EXPECT_NEAR(res.lcBusySeconds / (c * duration), rho, 0.05);
}

TEST(MultiClass, ZeroArrivalsProducesNothing)
{
    MultiClassSimulator sim({mmcClass(0.0, 1.0, 2)}, 2, 0.0);
    Rng rng(3);
    const auto res = sim.run(100.0, rng);
    EXPECT_EQ(res.lcArrivals, 0u);
    EXPECT_TRUE(res.lcSojournTimes[0].empty());
}

TEST(MultiClass, BeSaturatesIdlePool)
{
    // With negligible LC load, BE throughput approaches servers *
    // chunk rate whatever the warmup: chunks count after warmup
    // only, so the rate is over the measured window.
    MultiClassSimulator sim({mmcClass(0.01, 100.0, 4)}, 4, 5.0);
    for (const double warmup : {0.0, 1000.0, 1800.0}) {
        Rng rng(11);
        const auto res = sim.run(2000.0, rng, warmup);
        EXPECT_NEAR(res.beThroughput(), 4 * 5.0, 1.0)
            << "warmup=" << warmup;
    }
}

TEST(MultiClass, LcPreemptionStealsBeThroughput)
{
    // LC load consuming ~half the pool halves BE throughput.
    const int servers = 4;
    const double lc_mu = 2.0;
    const double lc_lambda = 4.0; // utilisation = 4 / (4*2) = 0.5
    MultiClassSimulator sim({mmcClass(lc_lambda, lc_mu, servers)},
                            servers, 5.0);
    Rng rng(13);
    const auto res = sim.run(5000.0, rng);
    EXPECT_NEAR(res.beThroughput(), 0.5 * servers * 5.0,
                0.08 * servers * 5.0);
}

TEST(MultiClass, LcLatencyShieldedFromBe)
{
    // LC p95 under preemptive priority with saturating BE work
    // matches the BE-free M/M/c within tolerance: the definition of
    // "LC apps take precedence" in the paper's LC-first baseline.
    const int servers = 4;
    const double lc_mu = 2.0, lc_lambda = 3.0;
    MultiClassSimulator sim({mmcClass(lc_lambda, lc_mu, servers)},
                            servers, 5.0);
    Rng rng(17);
    const auto res = sim.run(20000.0, rng);
    ASSERT_GT(res.lcSojournTimes[0].size(), 1000u);
    const double measured = exactPercentile(res.lcSojournTimes[0], 95.0);
    const double analytic = ahq::perf::mmcSojournPercentile(
        servers, lc_lambda, lc_mu, 0.95);
    EXPECT_NEAR(measured / analytic, 1.0, 0.10);
}

TEST(MultiClass, HigherLcLoadLowersBeThroughput)
{
    Rng rng1(19), rng2(19);
    MultiClassSimulator lo({mmcClass(1.0, 2.0, 4)}, 4, 5.0);
    MultiClassSimulator hi({mmcClass(6.0, 2.0, 4)}, 4, 5.0);
    const auto r_lo = lo.run(3000.0, rng1);
    const auto r_hi = hi.run(3000.0, rng2);
    EXPECT_GT(r_lo.beThroughput(), r_hi.beThroughput());
}

TEST(MultiClass, SingleClassNoBeMatchesMmc)
{
    // One class on 4 shared servers with no BE work is plain M/M/4.
    LcClassSpec c;
    c.arrivalRate = 2.0;
    c.serviceRate = 1.0;
    c.maxConcurrency = 4;
    MultiClassSimulator sim({c}, 4, 0.0);
    Rng rng(3);
    const auto res = sim.run(20000.0, rng, 100.0);
    ASSERT_GT(res.lcSojournTimes[0].size(), 1000u);
    const double measured =
        exactPercentile(res.lcSojournTimes[0], 95.0);
    const double analytic =
        ahq::perf::mmcSojournPercentile(4, 2.0, 1.0, 0.95);
    EXPECT_NEAR(measured / analytic, 1.0, 0.1);
}

TEST(MultiClass, BeWorkDoesNotHurtLcUnderPriority)
{
    // Saturating BE work on the shared pool must leave LC latency
    // essentially unchanged (preemption) — the LcPriority premise.
    LcClassSpec c;
    c.arrivalRate = 2.0;
    c.serviceRate = 1.0;
    c.maxConcurrency = 4;
    Rng r1(5), r2(5);
    const auto quiet =
        MultiClassSimulator({c}, 4, 0.0).run(10000.0, r1, 100.0);
    const auto busy =
        MultiClassSimulator({c}, 4, 6.0).run(10000.0, r2, 100.0);
    const double p_quiet =
        exactPercentile(quiet.lcSojournTimes[0], 95.0);
    const double p_busy =
        exactPercentile(busy.lcSojournTimes[0], 95.0);
    EXPECT_NEAR(p_busy / p_quiet, 1.0, 0.15);
    EXPECT_GT(busy.beChunksCompleted, 0u);
}

TEST(MultiClass, BeGetsLeftoverCapacity)
{
    // One class at utilisation ~0.5 of a 4-server pool: BE should
    // get roughly half the pool's chunk throughput.
    LcClassSpec c;
    c.arrivalRate = 2.0;
    c.serviceRate = 1.0;
    c.maxConcurrency = 4;
    MultiClassSimulator sim({c}, 4, 5.0);
    Rng rng(7);
    const auto res = sim.run(8000.0, rng, 100.0);
    EXPECT_NEAR(res.beThroughput(), 0.5 * 4 * 5.0,
                0.1 * 4 * 5.0);
}

TEST(MultiClass, IsolatedServersShieldClass)
{
    // Class 0 has 2 private servers; a heavy class 1 floods the
    // shared pool. Class 0's latency must stay near its private
    // M/M/2 while class 1 queues.
    LcClassSpec c0;
    c0.arrivalRate = 1.0;
    c0.serviceRate = 1.0;
    c0.isolatedServers = 2;
    c0.maxConcurrency = 4;
    LcClassSpec c1;
    c1.arrivalRate = 3.6;
    c1.serviceRate = 1.0;
    c1.maxConcurrency = 4;
    MultiClassSimulator sim({c0, c1}, 4, 0.0);
    Rng rng(11);
    const auto res = sim.run(20000.0, rng, 200.0);
    const double p0 = exactPercentile(res.lcSojournTimes[0], 95.0);
    const double p1 = exactPercentile(res.lcSojournTimes[1], 95.0);
    // Class 0 ~ its private M/M/2 at rho 0.5 (it overflows into the
    // shared pool when busy, so it can only be better).
    const double analytic0 =
        ahq::perf::mmcSojournPercentile(2, 1.0, 1.0, 0.95);
    EXPECT_LT(p0, analytic0 * 1.1);
    EXPECT_GT(p1, p0);
}

TEST(MultiClass, ConcurrencyCapLimitsService)
{
    // A class capped at 1 concurrent request on a 4-server pool is
    // effectively M/M/1 even though servers abound.
    LcClassSpec c;
    c.arrivalRate = 0.6;
    c.serviceRate = 1.0;
    c.maxConcurrency = 1;
    MultiClassSimulator sim({c}, 4, 0.0);
    Rng rng(13);
    const auto res = sim.run(30000.0, rng, 200.0);
    const double measured =
        exactPercentile(res.lcSojournTimes[0], 95.0);
    const double analytic =
        ahq::perf::mmcSojournPercentile(1, 0.6, 1.0, 0.95);
    EXPECT_NEAR(measured / analytic, 1.0, 0.12);
}

TEST(MultiClass, TwoClassesShareFairlyByArrivalOrder)
{
    // Two identical classes on a shared pool behave like one pooled
    // M/M/4 at their combined rate.
    LcClassSpec c;
    c.arrivalRate = 1.2;
    c.serviceRate = 1.0;
    c.maxConcurrency = 4;
    MultiClassSimulator sim({c, c}, 4, 0.0);
    Rng rng(17);
    const auto res = sim.run(20000.0, rng, 200.0);
    const double p0 = exactPercentile(res.lcSojournTimes[0], 95.0);
    const double p1 = exactPercentile(res.lcSojournTimes[1], 95.0);
    EXPECT_NEAR(p0 / p1, 1.0, 0.12);
    const double analytic =
        ahq::perf::mmcSojournPercentile(4, 2.4, 1.0, 0.95);
    EXPECT_NEAR(p0 / analytic, 1.0, 0.15);
}

TEST(MultiClass, DeterministicForSeed)
{
    LcClassSpec c;
    c.arrivalRate = 1.0;
    c.serviceRate = 1.0;
    c.maxConcurrency = 4;
    MultiClassSimulator sim({c}, 2, 3.0);
    Rng r1(99), r2(99);
    const auto a = sim.run(500.0, r1);
    const auto b = sim.run(500.0, r2);
    EXPECT_EQ(a.beChunksCompleted, b.beChunksCompleted);
    ASSERT_EQ(a.lcSojournTimes[0].size(),
              b.lcSojournTimes[0].size());
    for (std::size_t i = 0; i < a.lcSojournTimes[0].size(); ++i) {
        EXPECT_DOUBLE_EQ(a.lcSojournTimes[0][i],
                         b.lcSojournTimes[0][i]);
    }
}

TEST(MultiClass, WarmupDiscardsEarlySamples)
{
    LcClassSpec c;
    c.arrivalRate = 5.0;
    c.serviceRate = 10.0;
    c.maxConcurrency = 2;
    MultiClassSimulator sim({c}, 2, 0.0);
    Rng r1(1), r2(1);
    const auto all = sim.run(1000.0, r1, 0.0);
    const auto trimmed = sim.run(1000.0, r2, 500.0);
    EXPECT_GT(all.lcSojournTimes[0].size(),
              trimmed.lcSojournTimes[0].size());
}

} // namespace
