/**
 * @file
 * Tests for the seeded random number generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "stats/rng.hh"

namespace
{

using ahq::stats::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.nextU64() == b.nextU64())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(99);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-3.0, 7.0);
        EXPECT_GE(v, -3.0);
        EXPECT_LT(v, 7.0);
    }
}

TEST(Rng, UniformIntCoversRangeWithoutBias)
{
    Rng rng(11);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(10)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 10, n / 10 * 0.15);
}

TEST(Rng, ExponentialMeanMatchesRate)
{
    Rng rng(21);
    const double rate = 4.0;
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.exponential(rate);
        EXPECT_GE(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(33);
    const int n = 200000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal(2.0, 3.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.05);
    EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(Rng, LognormalNoiseHasUnitMean)
{
    Rng rng(44);
    const int n = 200000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        const double v = rng.lognormalNoise(0.2);
        EXPECT_GT(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 1.0, 0.01);
}

TEST(Rng, LognormalNoiseZeroSigmaIsIdentity)
{
    Rng rng(45);
    EXPECT_EQ(rng.lognormalNoise(0.0), 1.0);
    EXPECT_EQ(rng.lognormalNoise(-1.0), 1.0);
}

TEST(Rng, BernoulliFrequencyMatchesP)
{
    Rng rng(66);
    const int n = 100000;
    int heads = 0;
    for (int i = 0; i < n; ++i) {
        if (rng.bernoulli(0.3))
            ++heads;
    }
    EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(Rng, SplitStreamsAreIndependentAndStable)
{
    Rng parent(77);
    Rng c1 = parent.split(0);
    Rng c2 = parent.split(1);
    Rng c1_again = parent.split(0);
    // Same stream id yields the same stream.
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(c1.nextU64(), c1_again.nextU64());
    // Different stream ids diverge.
    Rng d1 = parent.split(0);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (d1.nextU64() == c2.nextU64())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, SplitDoesNotAdvanceParent)
{
    Rng a(88), b(88);
    (void)a.split(42);
    EXPECT_EQ(a.nextU64(), b.nextU64());
}

} // namespace
