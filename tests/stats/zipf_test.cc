/**
 * @file
 * Tests for the Zipf sampler.
 */

#include <gtest/gtest.h>

#include <vector>

#include "stats/rng.hh"
#include "stats/zipf.hh"

namespace
{

using ahq::stats::Rng;
using ahq::stats::ZipfDistribution;

TEST(Zipf, PmfSumsToOne)
{
    ZipfDistribution z(1000, 0.9);
    double sum = 0.0;
    for (std::uint64_t r = 1; r <= 1000; ++r)
        sum += z.pmf(r);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, PmfMonotoneDecreasing)
{
    ZipfDistribution z(100, 1.1);
    for (std::uint64_t r = 2; r <= 100; ++r)
        EXPECT_LE(z.pmf(r), z.pmf(r - 1));
}

TEST(Zipf, ZeroSkewIsUniform)
{
    ZipfDistribution z(50, 0.0);
    for (std::uint64_t r = 1; r <= 50; ++r)
        EXPECT_NEAR(z.pmf(r), 1.0 / 50.0, 1e-12);
}

TEST(Zipf, SamplesInRange)
{
    ZipfDistribution z(42, 0.8);
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        const auto r = z.sampleAt(rng.uniform());
        EXPECT_GE(r, 1u);
        EXPECT_LE(r, 42u);
    }
}

TEST(Zipf, EmpiricalFrequenciesMatchPmf)
{
    ZipfDistribution z(20, 1.0);
    Rng rng(9);
    std::vector<int> counts(21, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sampleAt(rng.uniform())];
    for (std::uint64_t r = 1; r <= 20; ++r) {
        const double expected = z.pmf(r) * n;
        EXPECT_NEAR(counts[r], expected, 0.05 * n * z.pmf(1));
    }
}

TEST(Zipf, SingleItemAlwaysRankOne)
{
    ZipfDistribution z(1, 1.5);
    Rng rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(z.sampleAt(rng.uniform()), 1u);
    EXPECT_NEAR(z.pmf(1), 1.0, 1e-12);
}

TEST(Zipf, SampleAtBoundaryDraws)
{
    ZipfDistribution z(10, 1.0);
    // u == 0.0 is the first rank; u == 1.0 must land on the last
    // rank, not one past the table (the cdf's final entry is pinned
    // to exactly 1.0 so lower_bound finds it).
    EXPECT_EQ(z.sampleAt(0.0), 1u);
    EXPECT_EQ(z.sampleAt(1.0), 10u);
    // Even an out-of-contract draw past 1.0 clamps to rank n
    // instead of indexing off the end.
    EXPECT_EQ(z.sampleAt(1.5), 10u);
}

TEST(Zipf, SampleAtPmfBoundaries)
{
    ZipfDistribution z(100, 0.8);
    const double p1 = z.pmf(1);
    // Just inside rank 1's mass vs just past it.
    EXPECT_EQ(z.sampleAt(p1 - 1e-12), 1u);
    EXPECT_EQ(z.sampleAt(p1 + 1e-12), 2u);
}

TEST(Zipf, SampleAtSingleItem)
{
    ZipfDistribution z(1, 0.0);
    EXPECT_EQ(z.sampleAt(0.0), 1u);
    EXPECT_EQ(z.sampleAt(0.5), 1u);
    EXPECT_EQ(z.sampleAt(1.0), 1u);
}

TEST(Zipf, PmfSumsToOneAcrossSizesAndSkews)
{
    for (std::uint64_t n : {std::uint64_t{2}, std::uint64_t{7},
                            std::uint64_t{1000}}) {
        for (double s : {0.0, 0.8, 1.0}) {
            ZipfDistribution z(n, s);
            double sum = 0.0;
            for (std::uint64_t r = 1; r <= n; ++r)
                sum += z.pmf(r);
            EXPECT_NEAR(sum, 1.0, 1e-9) << "n=" << n << " s=" << s;
        }
    }
}

TEST(Zipf, HigherSkewConcentratesHead)
{
    ZipfDistribution mild(100, 0.5);
    ZipfDistribution steep(100, 1.5);
    EXPECT_GT(steep.pmf(1), mild.pmf(1));
    EXPECT_LT(steep.pmf(100), mild.pmf(100));
}

} // namespace
