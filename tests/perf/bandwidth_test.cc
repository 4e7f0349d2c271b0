/**
 * @file
 * Tests for the bandwidth contention model.
 */

#include <gtest/gtest.h>

#include "perf/bandwidth.hh"

namespace
{

using ahq::perf::BandwidthModel;
using ahq::perf::BandwidthTraits;

TEST(Bandwidth, NoDilationAtZeroLoad)
{
    BandwidthModel m;
    EXPECT_EQ(m.dilation(0.0), 1.0);
    EXPECT_EQ(m.dilation(-1.0), 1.0);
}

TEST(Bandwidth, DilationMonotoneInUtilization)
{
    BandwidthModel m;
    double prev = 1.0;
    for (double rho = 0.1; rho <= 0.95; rho += 0.05) {
        const double d = m.dilation(rho);
        EXPECT_GE(d, prev);
        prev = d;
    }
}

TEST(Bandwidth, DilationMildAtLowLoadSharpNearSaturation)
{
    BandwidthModel m;
    EXPECT_LT(m.dilation(0.3), 1.15);
    EXPECT_GT(m.dilation(0.95), 2.0);
}

TEST(Bandwidth, DilationCappedBeyondRhoCap)
{
    BandwidthModel m;
    EXPECT_EQ(m.dilation(0.99), m.dilation(5.0));
}

TEST(Bandwidth, DilationRespectsMax)
{
    // Uncapped, the curve reads 1 + 0.8 * 0.97^2 / 0.03 = 26 at the
    // utilisation clamp.
    BandwidthModel m;
    EXPECT_EQ(m.dilation(0.999), ahq::perf::kMaxDilation);
}

TEST(Bandwidth, ZeroKDisablesDilation)
{
    BandwidthTraits t;
    t.contentionK = 0.0;
    BandwidthModel m(t);
    EXPECT_EQ(m.dilation(0.9), 1.0);
}

TEST(Bandwidth, ThroughputScaleOnlyThrottlesExcess)
{
    BandwidthModel m;
    EXPECT_EQ(m.throughputScale(5.0, 10.0), 1.0);
    EXPECT_EQ(m.throughputScale(10.0, 10.0), 1.0);
    EXPECT_NEAR(m.throughputScale(20.0, 10.0), 0.5, 1e-12);
}

} // namespace
