/**
 * @file
 * Tests for miss-rate curves.
 */

#include <gtest/gtest.h>

#include "perf/mrc.hh"

namespace
{

using ahq::perf::MissRateCurve;

TEST(MissRateCurve, BoundsAndLimits)
{
    MissRateCurve mrc(20.0, 2.0, 5.0);
    // At zero ways, all reducible misses present.
    EXPECT_NEAR(mrc.mpki(0.0), 20.0, 1e-12);
    // Asymptotically approaches the floor.
    EXPECT_NEAR(mrc.mpki(1e9), 2.0, 1e-3);
    // At the half-saturation point, half the reducible misses left.
    EXPECT_NEAR(mrc.mpki(5.0), 2.0 + 9.0, 1e-12);
}

TEST(MissRateCurve, MonotoneDecreasing)
{
    MissRateCurve mrc(30.0, 5.0, 8.0);
    double prev = mrc.mpki(0.0);
    for (double w = 0.5; w <= 40.0; w += 0.5) {
        const double cur = mrc.mpki(w);
        EXPECT_LE(cur, prev);
        prev = cur;
    }
}

TEST(MissRateCurve, ConvexInWays)
{
    MissRateCurve mrc(30.0, 5.0, 8.0);
    // Second difference non-negative for a convex curve.
    for (double w = 1.0; w <= 30.0; w += 1.0) {
        const double d2 = mrc.mpki(w + 1) - 2 * mrc.mpki(w) +
            mrc.mpki(w - 1);
        EXPECT_GE(d2, -1e-9);
    }
}

TEST(MissRateCurve, NegativeWaysClampedToZero)
{
    MissRateCurve mrc(10.0, 1.0, 2.0);
    EXPECT_EQ(mrc.mpki(-3.0), mrc.mpki(0.0));
}

TEST(MissRateCurve, FlatCurveHasTinyIntensity)
{
    // A streaming workload with no reuse competes for almost no ways.
    MissRateCurve stream(60.0, 56.0, 2.0);
    MissRateCurve hungry(30.0, 5.0, 8.0);
    EXPECT_LT(stream.intensityWithMpki(stream.mpki(10.0)),
              hungry.intensityWithMpki(hungry.mpki(10.0)));
}

TEST(MissRateCurve, IntensityDecreasesWithAllocation)
{
    MissRateCurve mrc(30.0, 5.0, 8.0);
    EXPECT_GT(mrc.intensityWithMpki(mrc.mpki(2.0)),
              mrc.intensityWithMpki(mrc.mpki(10.0)));
}

TEST(MissRateCurve, IntensityHasFloor)
{
    MissRateCurve mrc(5.0, 5.0, 2.0); // fully flat
    EXPECT_GE(mrc.intensityWithMpki(mrc.mpki(100.0)), 0.05);
}

TEST(MissRateCurve, AccessorsRoundTrip)
{
    MissRateCurve mrc(12.0, 3.0, 4.0);
    EXPECT_EQ(mrc.mpkiMax(), 12.0);
    EXPECT_EQ(mrc.mpkiMin(), 3.0);
    EXPECT_EQ(mrc.waysHalf(), 4.0);
}

} // namespace
