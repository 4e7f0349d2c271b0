/**
 * @file
 * Tests for bootstrap confidence intervals.
 */

#include <gtest/gtest.h>

#include "stats/bootstrap.hh"
#include "stats/summary.hh"

namespace
{

using namespace ahq::stats;

TEST(Bootstrap, EstimateIsPointStatistic)
{
    Rng rng(1);
    const std::vector<double> s{1.0, 2.0, 3.0, 4.0};
    const auto ci = bootstrapMeanCi(s, rng);
    EXPECT_NEAR(ci.estimate, 2.5, 1e-12);
    EXPECT_LE(ci.lo, ci.estimate);
    EXPECT_GE(ci.hi, ci.estimate);
}

TEST(Bootstrap, DegenerateSampleHasZeroWidth)
{
    Rng rng(2);
    const std::vector<double> s(20, 7.0);
    const auto ci = bootstrapMeanCi(s, rng);
    EXPECT_NEAR(ci.lo, 7.0, 1e-12);
    EXPECT_NEAR(ci.hi, 7.0, 1e-12);
    EXPECT_EQ(ci.hi - ci.lo, 0.0);
}

TEST(Bootstrap, CoverageOnGaussianData)
{
    // The 95% CI of the mean should contain the true mean roughly
    // 95% of the time; check a modest lower bound across trials.
    Rng meta(3);
    int covered = 0;
    const int trials = 100;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> s;
        for (int i = 0; i < 60; ++i)
            s.push_back(meta.normal(10.0, 2.0));
        Rng rng(1000 + t);
        const auto ci = bootstrapMeanCi(s, rng, 0.95, 400);
        if (ci.contains(10.0))
            ++covered;
    }
    EXPECT_GE(covered, 85); // nominal 95, allow slack
}

TEST(Bootstrap, WiderConfidenceWiderInterval)
{
    Rng r1(4), r2(4);
    std::vector<double> s;
    Rng data(5);
    for (int i = 0; i < 50; ++i)
        s.push_back(data.exponential(1.0));
    const auto ci90 = bootstrapMeanCi(s, r1, 0.90);
    const auto ci99 = bootstrapMeanCi(s, r2, 0.99);
    EXPECT_GT(ci99.hi - ci99.lo, ci90.hi - ci90.lo);
}

TEST(Bootstrap, CustomStatistic)
{
    Rng rng(6);
    std::vector<double> s;
    Rng data(7);
    for (int i = 0; i < 200; ++i)
        s.push_back(data.uniform());
    const auto ci = bootstrapCi(
        s,
        [](const std::vector<double> &v) {
            double inverse_sum = 0.0;
            for (const double x : v)
                inverse_sum += 1.0 / x;
            return static_cast<double>(v.size()) / inverse_sum;
        },
        rng);
    // HM of U(0,1) samples is below the arithmetic mean.
    EXPECT_LT(ci.estimate, mean(s));
    EXPECT_GT(ci.estimate, 0.0);
}

TEST(Bootstrap, DeterministicForSeed)
{
    const std::vector<double> s{1.0, 5.0, 2.0, 8.0, 3.0};
    Rng r1(9), r2(9);
    const auto a = bootstrapMeanCi(s, r1);
    const auto b = bootstrapMeanCi(s, r2);
    EXPECT_DOUBLE_EQ(a.lo, b.lo);
    EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

} // namespace
