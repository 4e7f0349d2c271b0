/**
 * @file
 * Tests for the CPI model.
 */

#include <gtest/gtest.h>

#include "perf/cpi.hh"

namespace
{

using ahq::perf::CpiModel;
using ahq::perf::CpiTraits;
using ahq::perf::MissRateCurve;

CpiModel
model(double mlp = 2.0)
{
    CpiTraits t;
    t.cpiBase = 0.6;
    t.missPenaltyCycles = 180.0;
    t.mlp = mlp;
    return CpiModel(MissRateCurve(20.0, 2.0, 5.0), t);
}

/** GiB/s one core of @p m demands at the given ways and dilation. */
double
demandGibps(const CpiModel &m, double ways, double dilation)
{
    return m.bwDemandPerCoreAtCpi(m.cpi(ways, dilation),
                                  m.mrc().mpki(ways));
}

TEST(CpiModel, CpiDecomposition)
{
    const CpiModel m = model();
    // cpi = base + mpki/1000 * penalty/mlp * dilation
    const double expected =
        0.6 + 11.0 / 1000.0 * (180.0 / 2.0) * 1.0;
    EXPECT_NEAR(m.cpi(5.0, 1.0), expected, 1e-12);
}

TEST(CpiModel, MoreWaysLowerCpi)
{
    const CpiModel m = model();
    EXPECT_LT(m.cpi(15.0, 1.0), m.cpi(5.0, 1.0));
}

TEST(CpiModel, DilationRaisesCpi)
{
    const CpiModel m = model();
    EXPECT_GT(m.cpi(10.0, 2.0), m.cpi(10.0, 1.0));
}

TEST(CpiModel, HighMlpShieldsCpiButNotBandwidth)
{
    const CpiModel low = model(1.0);
    const CpiModel high = model(8.0);
    // Same miss rate, but high MLP hides latency...
    EXPECT_LT(high.cpi(5.0, 1.0), low.cpi(5.0, 1.0));
    // ...and therefore produces MORE bandwidth demand per core
    // (faster execution, same misses per instruction).
    EXPECT_GT(demandGibps(high, 5.0, 1.0),
              demandGibps(low, 5.0, 1.0));
}

TEST(CpiModel, BandwidthDemandPositiveAndSane)
{
    const CpiModel m = model();
    const double bw = demandGibps(m, 5.0, 1.0);
    // 2.2 GHz core with ~11 MPKI: O(1) GiB/s, definitely < 100.
    EXPECT_GT(bw, 0.1);
    EXPECT_LT(bw, 100.0);
}

TEST(CpiModel, BandwidthDemandFallsWithDilation)
{
    // A dilated memory system slows the core, which lowers its
    // bandwidth demand (negative feedback for the fixed point).
    const CpiModel m = model();
    EXPECT_LT(demandGibps(m, 5.0, 3.0), demandGibps(m, 5.0, 1.0));
}

} // namespace
