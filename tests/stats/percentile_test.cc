/**
 * @file
 * Tests for the exact batch percentile.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats/percentile.hh"

namespace
{

using ahq::stats::exactPercentile;

TEST(ExactPercentile, EmptyIsZero)
{
    EXPECT_EQ(exactPercentile({}, 95.0), 0.0);
}

TEST(ExactPercentile, SingleSample)
{
    EXPECT_EQ(exactPercentile({42.0}, 0.0), 42.0);
    EXPECT_EQ(exactPercentile({42.0}, 95.0), 42.0);
}

TEST(ExactPercentile, MedianOfOddSet)
{
    EXPECT_EQ(exactPercentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(ExactPercentile, InterpolatesBetweenRanks)
{
    // Ranks 0..3 over [10,20,30,40]; p50 -> rank 1.5 -> 25.
    EXPECT_NEAR(exactPercentile({10, 20, 30, 40}, 50.0), 25.0, 1e-12);
}

TEST(ExactPercentile, ExtremesAreMinMax)
{
    const std::vector<double> v{5.0, 1.0, 9.0, 3.0};
    EXPECT_EQ(exactPercentile(v, 0.0), 1.0);
    EXPECT_EQ(exactPercentile(v, 100.0), 9.0);
}

TEST(ExactPercentile, UnsortedInputHandled)
{
    const std::vector<double> v{9, 1, 8, 2, 7, 3, 6, 4, 5};
    EXPECT_EQ(exactPercentile(v, 50.0), 5.0);
}

TEST(ExactPercentile, RejectsOutOfRangeP)
{
    EXPECT_THROW(exactPercentile({1.0, 2.0}, -0.001),
                 std::invalid_argument);
    EXPECT_THROW(exactPercentile({1.0, 2.0}, 100.001),
                 std::invalid_argument);
    EXPECT_THROW(exactPercentile({1.0, 2.0},
                                 std::nan("")),
                 std::invalid_argument);
}

TEST(ExactPercentile, RejectsNanSamples)
{
    EXPECT_THROW(exactPercentile({1.0, std::nan(""), 3.0}, 50.0),
                 std::invalid_argument);
}

TEST(ExactPercentile, P100NeverIndexesPastEnd)
{
    // p == 100 lands exactly on the last rank; any FP rounding up
    // must still clamp into the array.
    std::vector<double> v;
    for (int i = 0; i < 1000; ++i)
        v.push_back(static_cast<double>(i));
    EXPECT_EQ(exactPercentile(v, 100.0), 999.0);
    EXPECT_NEAR(exactPercentile(v, 99.999999999999), 999.0, 1e-6);
}

} // namespace
