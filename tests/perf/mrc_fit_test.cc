/**
 * @file
 * Tests for MRC fitting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "perf/cpi.hh"
#include "perf/mrc_fit.hh"
#include "stats/rng.hh"

namespace
{

using namespace ahq::perf;

std::vector<MrcSample>
sampleCurve(const MissRateCurve &mrc, double noise_sigma,
            ahq::stats::Rng *rng)
{
    std::vector<MrcSample> s;
    for (double w : {1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0}) {
        double y = mrc.mpki(w);
        if (rng)
            y *= rng->lognormalNoise(noise_sigma);
        s.emplace_back(w, y);
    }
    return s;
}

TEST(MrcFit, RecoversExactCurve)
{
    const MissRateCurve truth(24.0, 3.0, 5.0);
    const auto fit =
        fitMissRateCurve(sampleCurve(truth, 0.0, nullptr));
    EXPECT_LT(fit.rmse, 1e-6);
    EXPECT_NEAR(fit.curve.mpkiMax(), 24.0, 0.05);
    EXPECT_NEAR(fit.curve.mpkiMin(), 3.0, 0.05);
    EXPECT_NEAR(fit.curve.waysHalf(), 5.0, 0.1);
}

TEST(MrcFit, RobustToMeasurementNoise)
{
    const MissRateCurve truth(30.0, 5.0, 8.0);
    ahq::stats::Rng rng(17);
    const auto fit =
        fitMissRateCurve(sampleCurve(truth, 0.05, &rng));
    // The fitted curve tracks the truth within ~15% everywhere.
    for (double w = 1.0; w <= 20.0; w += 1.0) {
        EXPECT_NEAR(fit.curve.mpki(w) / truth.mpki(w), 1.0, 0.15)
            << "at " << w << " ways";
    }
}

TEST(MrcFit, FlatCurveFitsFlat)
{
    // A streaming workload: MPKI barely depends on ways.
    std::vector<MrcSample> s{{1, 58.0}, {4, 57.5}, {8, 57.2},
                             {16, 57.0}};
    const auto fit = fitMissRateCurve(s);
    EXPECT_LT(fit.curve.mpkiMax() - fit.curve.mpkiMin(), 4.0);
    EXPECT_NEAR(fit.curve.mpki(8.0), 57.2, 1.0);
}

TEST(MrcFit, RejectsDegenerateInput)
{
    EXPECT_THROW((void)fitMissRateCurve({{1, 5}, {2, 4}}),
                 std::invalid_argument);
    EXPECT_THROW((void)fitMissRateCurve({{1, 5}, {1, 4}, {1, 3}}),
                 std::invalid_argument);
    EXPECT_THROW((void)fitMissRateCurve({{1, -5}, {2, 4}, {3, 3}}),
                 std::invalid_argument);
}

TEST(MrcFit, FittedCurveUsableInCpiModel)
{
    const MissRateCurve truth(20.0, 2.0, 6.0);
    const auto fit =
        fitMissRateCurve(sampleCurve(truth, 0.0, nullptr));
    CpiModel model(fit.curve, CpiTraits{});
    // Two ways run slower than the full 20-way cache, at a finite
    // positive CPI.
    const double ideal = model.cpiIdeal(20.0);
    EXPECT_GT(ideal, 0.0);
    EXPECT_GT(model.cpi(2.0, 1.0), ideal);
    EXPECT_TRUE(std::isfinite(model.cpi(2.0, 1.0)));
}

} // namespace
