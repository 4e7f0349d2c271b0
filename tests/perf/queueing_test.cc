/**
 * @file
 * Tests for the M/M/c queueing formulas, including closed-form
 * checks against the M/M/1 special case.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "perf/queueing.hh"

namespace
{

using namespace ahq::perf;

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ErlangB, KnownValues)
{
    // B(0, a) = 1, B(1, a) = a / (1 + a).
    EXPECT_NEAR(erlangB(0, 2.0), 1.0, 1e-12);
    EXPECT_NEAR(erlangB(1, 2.0), 2.0 / 3.0, 1e-12);
    // Standard reference value: B(5, 3) ~= 0.11005.
    EXPECT_NEAR(erlangB(5, 3.0), 0.11005, 1e-4);
}

TEST(ErlangC, MM1EqualsUtilization)
{
    // For c = 1, P(wait) = rho.
    for (double rho : {0.1, 0.5, 0.9}) {
        EXPECT_NEAR(erlangC(1.0, rho, 1.0), rho, 1e-12);
    }
}

TEST(ErlangC, SaturationGivesOne)
{
    EXPECT_EQ(erlangC(2.0, 2.0, 1.0), 1.0);
    EXPECT_EQ(erlangC(2.0, 3.0, 1.0), 1.0);
}

TEST(ErlangC, DecreasesWithServers)
{
    const double lambda = 2.0, mu = 1.0;
    double prev = 1.0;
    for (double c = 3.0; c <= 10.0; c += 1.0) {
        const double pc = erlangC(c, lambda, mu);
        EXPECT_LT(pc, prev);
        prev = pc;
    }
}

TEST(ErlangC, FractionalServersInterpolate)
{
    const double lambda = 2.0, mu = 1.0;
    const double c3 = erlangC(3.0, lambda, mu);
    const double c4 = erlangC(4.0, lambda, mu);
    const double c35 = erlangC(3.5, lambda, mu);
    EXPECT_NEAR(c35, 0.5 * (c3 + c4), 1e-12);
    EXPECT_LT(c4, c35);
    EXPECT_LT(c35, c3);
}

TEST(MeanWait, MM1ClosedForm)
{
    // M/M/1: Wq = rho / (mu - lambda).
    const double lambda = 0.5, mu = 1.0;
    EXPECT_NEAR(mmcMeanWait(1.0, lambda, mu),
                0.5 / (1.0 - 0.5), 1e-9);
}

TEST(MeanWait, UnstableIsInfinite)
{
    EXPECT_EQ(mmcMeanWait(1.0, 2.0, 1.0), kInf);
    EXPECT_EQ(mmcMeanSojourn(1.0, 2.0, 1.0), kInf);
}

TEST(MeanSojourn, AddsServiceTime)
{
    const double w = mmcMeanWait(2.0, 1.0, 1.0);
    EXPECT_NEAR(mmcMeanSojourn(2.0, 1.0, 1.0), w + 1.0, 1e-12);
}

TEST(SojournPercentile, MM1ClosedForm)
{
    // M/M/1 sojourn is Exp(mu - lambda): p-quantile = -ln(1-p)/(mu-l).
    const double lambda = 0.6, mu = 1.0;
    const double p = 0.95;
    const double expected = -std::log(1.0 - p) / (mu - lambda);
    EXPECT_NEAR(mmcSojournPercentile(1.0, lambda, mu, p), expected,
                1e-6);
}

TEST(SojournPercentile, ZeroLoadIsServiceTail)
{
    // With no arrivals the sojourn is just the service time.
    const double p95 = mmcSojournPercentile(4.0, 0.0, 2.0, 0.95);
    EXPECT_NEAR(p95, -std::log(0.05) / 2.0, 1e-6);
}

TEST(SojournPercentile, UnstableIsInfinite)
{
    EXPECT_EQ(mmcSojournPercentile(2.0, 3.0, 1.0, 0.95), kInf);
}

TEST(SojournPercentile, NearSaturationIsInfiniteNotHuge)
{
    // lambda one ulp below c*mu used to slip past the `lambda >=
    // c*mu` guard: eta underflowed and the percentile came back as
    // a huge-but-finite number (~1e15) that poisoned downstream
    // averages instead of reading as "saturated".
    const double mu = 1.0;
    for (double c : {1.0, 2.0, 4.0}) {
        const double lambda = std::nextafter(c * mu, 0.0);
        EXPECT_EQ(mmcSojournPercentile(c, lambda, mu, 0.95), kInf)
            << "c=" << c;
        EXPECT_EQ(mmcMeanWait(c, lambda, mu), kInf) << "c=" << c;
        EXPECT_EQ(sojournPercentileApprox(c, lambda, mu, 3.0), kInf)
            << "c=" << c;
        EXPECT_EQ(erlangC(c, lambda, mu), 1.0) << "c=" << c;
    }
}

TEST(SojournTail, IsAlwaysAValidProbability)
{
    const double mu = 1.0;
    for (double c : {1.0, 2.0, 4.0}) {
        for (double rho : {0.0, 0.3, 0.9, 0.999999}) {
            const double lambda = rho * c * mu;
            for (double t = 0.0; t <= 50.0; t += 2.5) {
                const double p = mmcSojournTail(t, c, lambda, mu);
                EXPECT_GE(p, 0.0)
                    << "c=" << c << " rho=" << rho << " t=" << t;
                EXPECT_LE(p, 1.0)
                    << "c=" << c << " rho=" << rho << " t=" << t;
            }
        }
    }
}

TEST(SojournTail, BoundaryCases)
{
    // Non-positive horizon: P(T > t) = 1.
    EXPECT_EQ(mmcSojournTail(0.0, 2.0, 1.0, 1.0), 1.0);
    EXPECT_EQ(mmcSojournTail(-1.0, 2.0, 1.0, 1.0), 1.0);
    // At or past saturation the sojourn diverges.
    EXPECT_EQ(mmcSojournTail(10.0, 2.0, 2.0, 1.0), 1.0);
    EXPECT_EQ(mmcSojournTail(10.0, 2.0, 3.0, 1.0), 1.0);
    // M/M/1 sojourn is Exp(mu - lambda).
    const double lambda = 0.4, mu = 1.0, t = 2.0;
    EXPECT_NEAR(mmcSojournTail(t, 1.0, lambda, mu),
                std::exp(-(mu - lambda) * t), 1e-9);
    // The tail decreases in t.
    double prev = 1.0;
    for (double h = 0.5; h <= 20.0; h += 0.5) {
        const double p = mmcSojournTail(h, 2.0, 1.5, 1.0);
        EXPECT_LE(p, prev);
        prev = p;
    }
}

class SojournLoadSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(SojournLoadSweep, MonotoneInLoad)
{
    // Percentiles rise with load at fixed capacity: the knee shape
    // of the paper's Fig. 7.
    const double c = GetParam();
    const double mu = 1.0;
    double prev = 0.0;
    for (double rho = 0.05; rho < 0.99; rho += 0.05) {
        const double t = mmcSojournPercentile(c, rho * c * mu, mu,
                                              0.95);
        EXPECT_GT(t, prev * 0.999);
        prev = t;
    }
    // And explodes near saturation.
    const double near_sat =
        mmcSojournPercentile(c, 0.99 * c * mu, mu, 0.95);
    EXPECT_GT(near_sat,
              3.0 * mmcSojournPercentile(c, 0.1 * c, mu, 0.95));
}

INSTANTIATE_TEST_SUITE_P(ServerCounts, SojournLoadSweep,
                         ::testing::Values(1.0, 2.0, 4.0, 8.0));

TEST(SojournPercentile, MoreServersSameUtilHelps)
{
    // At equal utilisation, more servers give lower percentiles
    // (pooling effect).
    const double mu = 1.0, rho = 0.8;
    const double t2 = mmcSojournPercentile(2, rho * 2, mu, 0.95);
    const double t8 = mmcSojournPercentile(8, rho * 8, mu, 0.95);
    EXPECT_LT(t8, t2);
}

// The LC tail rule (lcTailSeconds): what the epoch simulator
// measures and the oracle minimises.

TEST(Backlog, AddsDrainDelay)
{
    // 2 servers of 1 req/s, capacity 2 req/s, 1 req/s offered: a
    // backlog of 10 requests adds 10 / 2 s of drain to the
    // percentile at rate 1, service tail 3 x 1.5.
    const double base = sojournPercentileApprox(2.0, 1.0, 1.0, 4.5, 0.95);
    EXPECT_EQ(lcTailSeconds(2.0, 1.0, 2.0, 1.0, 3.0, 1.5, 0.0, 0.95), base);
    EXPECT_EQ(lcTailSeconds(2.0, 1.0, 2.0, 1.0, 3.0, 1.5, 10.0, 0.95),
              base + 5.0);
}

TEST(Backlog, UnstableFallsBackToOneServiceTail)
{
    // One 1 req/s server against a 2 req/s capacity: even held at
    // 0.98 x 2 the queue is past saturation and the percentile is
    // not finite, so the rule charges one service tail (3 x 1.5 /
    // 1 s) plus the drain of 4 requests over the capacity.
    ASSERT_EQ(sojournPercentileApprox(1.0, 1.96, 1.0, 4.5, 0.95), kInf);
    EXPECT_EQ(lcTailSeconds(1.0, 1.0, 2.0, 5.0, 3.0, 1.5, 4.0, 0.95),
              4.5 + 2.0);
}

TEST(Backlog, ArrivalsHeldAtNinetyEightPercentOfCapacity)
{
    // 4 servers of 10 req/s: any offered rate at or above 0.98 x 40
    // reads the tail at 39.2 req/s, so overload stays finite; below
    // it the offered rate stands.
    const double held = sojournPercentileApprox(4.0, 0.98 * 40.0, 10.0,
                                                2.0, 0.95);
    ASSERT_TRUE(std::isfinite(held));
    for (double lambda : {0.98 * 40.0, 40.0, 1e6}) {
        EXPECT_EQ(lcTailSeconds(4.0, 10.0, 40.0, lambda, 2.0, 1.0, 0.0,
                                0.95),
                  held)
            << "lambda=" << lambda;
    }
    EXPECT_EQ(lcTailSeconds(4.0, 10.0, 40.0, 20.0, 2.0, 1.0, 0.0, 0.95),
              sojournPercentileApprox(4.0, 20.0, 10.0, 2.0, 0.95));
}

TEST(ApproxSojourn, MatchesExactForExponentialService)
{
    // With svc_pmult = ln(20) (the exponential p95 multiplier), the
    // approximation should track the exact M/M/c percentile within
    // a modest relative error across moderate loads.
    const double mu = 1.0;
    for (double c : {1.0, 2.0, 4.0}) {
        for (double rho : {0.3, 0.6, 0.8}) {
            const double lambda = rho * c * mu;
            const double exact =
                mmcSojournPercentile(c, lambda, mu, 0.95);
            const double approx = sojournPercentileApprox(
                c, lambda, mu, -std::log(0.05), 0.95);
            EXPECT_NEAR(approx / exact, 1.0, 0.35)
                << "c=" << c << " rho=" << rho;
        }
    }
}

TEST(ApproxSojourn, ScalesWithServiceMultiplier)
{
    const double lo = sojournPercentileApprox(2.0, 0.5, 1.0, 1.0);
    const double hi = sojournPercentileApprox(2.0, 0.5, 1.0, 3.0);
    EXPECT_NEAR(hi - lo, 2.0, 1e-9);
}

TEST(ApproxSojourn, UnstableIsInfinite)
{
    EXPECT_EQ(sojournPercentileApprox(1.0, 2.0, 1.0, 3.0), kInf);
}

TEST(ApproxSojourn, NoWaitTermAtLightLoad)
{
    // When P(wait) <= 5%, the p95 is pure service tail.
    const double t = sojournPercentileApprox(8.0, 0.1, 1.0, 3.0);
    EXPECT_NEAR(t, 3.0, 1e-9);
}

} // namespace
