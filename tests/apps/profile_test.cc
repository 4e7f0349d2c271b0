/**
 * @file
 * Tests for application profiles and the calibration solver.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/catalog.hh"
#include "apps/profile.hh"
#include "perf/queueing.hh"

namespace
{

using namespace ahq::apps;

TEST(Calibration, ReproducesPublishedConstants)
{
    AppProfile p;
    p.name = "synthetic";
    p.threads = 4;
    CalibrationTargets t{2000.0, 8.0, 3.0};
    calibrateLcProfile(p, t);

    EXPECT_NEAR(p.soloTailPercentileMs(0.2, 0.95), 3.0, 0.02);
    EXPECT_NEAR(p.soloTailPercentileMs(1.0, 0.95), 8.0, 0.05);
    EXPECT_EQ(p.maxLoadQps, 2000.0);
    EXPECT_EQ(p.tailThresholdMs, 8.0);
}

TEST(Calibration, ServiceTimeWithinStabilityBound)
{
    AppProfile p;
    p.threads = 4;
    calibrateLcProfile(p, {2000.0, 8.0, 3.0});
    // c / lambda_max is the absolute stability bound per request.
    EXPECT_LT(p.serviceTimeMs, 4.0 * 1000.0 / 2000.0);
    EXPECT_GT(p.serviceTimeMs, 0.0);
    EXPECT_GE(p.svcP95Mult, 0.02);
}

TEST(Profile, ArrivalRateScalesWithLoad)
{
    const AppProfile p = xapian();
    EXPECT_NEAR(p.arrivalRate(0.5), 1700.0, 1e-9);
    EXPECT_EQ(p.arrivalRate(0.0), 0.0);
}

TEST(Profile, SoloTailMonotoneInLoad)
{
    const AppProfile p = moses();
    double prev = 0.0;
    for (double load = 0.1; load <= 0.95; load += 0.05) {
        const double t = p.soloTailPercentileMs(load, 0.95);
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(Profile, SoloTailInfiniteBeyondSaturation)
{
    const AppProfile p = xapian();
    // Max load is at the knee (p95 = M), not saturation; far beyond
    // the queue is genuinely unstable.
    EXPECT_TRUE(std::isinf(p.soloTailPercentileMs(5.0, 0.95)));
}

TEST(Profile, ToDemandCopiesFields)
{
    const AppProfile p = imgDnn();
    const auto d = p.toDemand(0.4);
    EXPECT_TRUE(d.latencyCritical);
    EXPECT_NEAR(d.arrivalRate, 0.4 * 5300.0, 1e-9);
    EXPECT_EQ(d.threads, 4);
    EXPECT_EQ(d.serviceTimeMs, p.serviceTimeMs);
}

TEST(Profile, BeToDemandHasNoArrivals)
{
    const AppProfile p = stream();
    const auto d = p.toDemand(0.9);
    EXPECT_FALSE(d.latencyCritical);
    EXPECT_EQ(d.arrivalRate, 0.0);
    EXPECT_EQ(d.ipcSolo, p.ipcSolo);
    EXPECT_EQ(d.threads, 10);
}


TEST(Percentile, P95MethodsAgree)
{
    const AppProfile p = xapian();
    // The percentile path at 0.95 is the calibrated p95 model: the
    // latency floor plus the sojourn p95 with the p95 service tail.
    const double p95 = p.baseLatencyMs +
        1000.0 * ahq::perf::sojournPercentileApprox(
                     static_cast<double>(p.threads), p.arrivalRate(0.4),
                     1000.0 / p.serviceTimeMs, p.svcP95Mult);
    EXPECT_NEAR(p.soloTailPercentileMs(0.4, 0.95), p95, 1e-9);
    EXPECT_NEAR(p.svcMultAt(0.95), p.svcP95Mult, 1e-12);
}

TEST(Percentile, HigherPercentileIsSlower)
{
    const AppProfile p = moses();
    const double p95 = p.soloTailPercentileMs(0.5, 0.95);
    const double p99 = p.soloTailPercentileMs(0.5, 0.99);
    const double p50 = p.soloTailPercentileMs(0.5, 0.50);
    EXPECT_GT(p99, p95);
    EXPECT_GT(p95, p50);
}

TEST(Percentile, ExponentialTailScaling)
{
    const AppProfile p = imgDnn();
    // svcMultAt scales with -log(1-p): p99/p95 = log(0.01)/log(0.05).
    EXPECT_NEAR(p.svcMultAt(0.99) / p.svcMultAt(0.95),
                std::log(0.01) / std::log(0.05), 1e-9);
}

/** Calibration must hit both published anchors for every LC app. */
class LcCalibrationSweep
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(LcCalibrationSweep, AnchorsReproduced)
{
    const AppProfile p = byName(GetParam());
    ASSERT_TRUE(p.latencyCritical);
    // Anchor 1: p95 at max load equals the threshold (Table IV).
    EXPECT_NEAR(p.soloTailPercentileMs(1.0, 0.95) / p.tailThresholdMs,
                1.0, 0.01)
        << p.name;
    // Anchor 2: the ideal tail at 20% load sits strictly below the
    // threshold with room to breathe (A_i > 0).
    const double tl0 = p.soloTailPercentileMs(0.2, 0.95);
    EXPECT_LT(tl0, p.tailThresholdMs) << p.name;
    EXPECT_GT(tl0, 0.0) << p.name;
}

TEST_P(LcCalibrationSweep, KneeShape)
{
    // Fig. 7: flat-then-exponential. The p95 growth from 20% to 60%
    // load must be much smaller than from 60% to 100%.
    const AppProfile p = byName(GetParam());
    const double lo = p.soloTailPercentileMs(0.2, 0.95);
    const double mid = p.soloTailPercentileMs(0.6, 0.95);
    const double hi = p.soloTailPercentileMs(1.0, 0.95);
    EXPECT_LT(mid - lo, hi - mid) << p.name;
}

INSTANTIATE_TEST_SUITE_P(AllLcApps, LcCalibrationSweep,
                         ::testing::Values("xapian", "moses",
                                           "img-dnn", "masstree",
                                           "sphinx", "silo"));

} // namespace
