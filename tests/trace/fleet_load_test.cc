/**
 * @file
 * Tests for the global load generator: determinism, Zipf tenant
 * skew, diurnal shape, flash gating and bounds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "trace/fleet_load.hh"

namespace
{

using namespace ahq::trace;

/** The fixed load shape (fleet_load.cc): one day, the cap, the peaks. */
constexpr double kDayS = 240.0;
constexpr double kLoadCap = 0.95;
constexpr double kBaseLoad = 0.15;
constexpr double kPeakLoad = 0.85;

/**
 * Whether @p trace has a flash crowd. One starts as a jump of +0.35
 * (less only where the cap clips it, and a peak is at most 0.85),
 * while the diurnal curve moves by under 1e-3 per 50 ms, and one
 * starts in every 90 s: a tenant flashes iff its first 100 s jump.
 */
bool
flashes(const ahq::trace::LoadTrace &trace)
{
    for (double t = 0.05; t < 100.0; t += 0.05)
        if (trace.at(t) - trace.at(t - 0.05) > 0.05)
            return true;
    return false;
}

TEST(FleetLoad, DeterministicAcrossInstances)
{
    FleetLoadConfig cfg;
    cfg.numNodes = 64;
    const FleetLoadGenerator g1(cfg);
    const FleetLoadGenerator g2(cfg);
    for (int n = 0; n < cfg.numNodes; ++n) {
        for (int s = 0; s < cfg.lcPerNode; ++s)
            EXPECT_EQ(g1.tenant(n, s), g2.tenant(n, s));
    }
    const auto t1 = g1.tenantTrace(1);
    const auto t2 = g2.tenantTrace(1);
    for (double t = 0.0; t < kDayS; t += 7.3)
        EXPECT_EQ(t1->at(t), t2->at(t));
}

TEST(FleetLoad, ZipfSkewFavorsLowRanks)
{
    FleetLoadConfig cfg;
    cfg.numNodes = 512;
    cfg.numTenants = 64;
    const FleetLoadGenerator gen(cfg);
    std::map<std::uint64_t, int> hits;
    for (int n = 0; n < cfg.numNodes; ++n) {
        for (int s = 0; s < cfg.lcPerNode; ++s) {
            const auto r = gen.tenant(n, s);
            ASSERT_GE(r, 1u);
            ASSERT_LE(r, static_cast<std::uint64_t>(cfg.numTenants));
            ++hits[r];
        }
    }
    // Rank 1 dominates the tail of the popularity distribution.
    EXPECT_GT(hits[1], hits[static_cast<std::uint64_t>(
                           cfg.numTenants)]);
    EXPECT_GT(hits[1], cfg.numNodes * cfg.lcPerNode / cfg.numTenants);
}

TEST(FleetLoad, TracesStayWithinBounds)
{
    // Worst case: the rank-1 tenant peaks at 0.85, so a flash crowd
    // on top of its busy hours would reach 1.2 unclamped. Take the
    // first seed from 42 at which that tenant flashes.
    FleetLoadConfig cfg;
    while (!flashes(*FleetLoadGenerator(cfg).tenantTrace(1))) {
        ++cfg.seed;
        ASSERT_LT(cfg.seed, 1042u) << "no seed flashes rank 1";
    }
    const FleetLoadGenerator gen(cfg);
    double top = 0.0;
    for (std::uint64_t r = 1;
         r <= static_cast<std::uint64_t>(cfg.numTenants); ++r) {
        const auto trace = gen.tenantTrace(r);
        for (double t = 0.0; t < 2.0 * kDayS; t += 0.5) {
            const double v = trace->at(t);
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, kLoadCap);
            if (r == 1)
                top = std::max(top, v);
        }
    }
    EXPECT_EQ(top, kLoadCap);
}

TEST(FleetLoad, DiurnalVariationIsVisible)
{
    const FleetLoadGenerator gen;
    const auto trace = gen.tenantTrace(1);
    double lo = 1e300, hi = -1e300;
    for (double t = 0.0; t < kDayS; t += 0.5) {
        lo = std::min(lo, trace->at(t));
        hi = std::max(hi, trace->at(t));
    }
    // Night vs day must differ by a meaningful margin.
    EXPECT_GT(hi - lo, 0.1);
}

TEST(FleetLoad, FlashCrowdsGateSomeTenants)
{
    // A 0.15 share of the 64 tenants flash, not none and not all.
    const FleetLoadGenerator gen;
    int flashing = 0;
    const int m = gen.config().numTenants;
    for (std::uint64_t r = 1; r <= static_cast<std::uint64_t>(m); ++r)
        flashing += flashes(*gen.tenantTrace(r)) ? 1 : 0;
    EXPECT_GT(flashing, 0);
    EXPECT_LT(flashing, m);
}

TEST(FleetLoad, PeakLoadInterpolatesByPopularity)
{
    const FleetLoadGenerator gen;
    const auto &cfg = gen.config();
    EXPECT_NEAR(gen.tenantPeakLoad(1), kPeakLoad, 1e-12);
    // Peaks decrease with rank and never fall below the 0.15 floor.
    double prev = gen.tenantPeakLoad(1);
    for (std::uint64_t r = 2;
         r <= static_cast<std::uint64_t>(cfg.numTenants); ++r) {
        const double p = gen.tenantPeakLoad(r);
        EXPECT_LE(p, prev + 1e-12);
        EXPECT_GE(p, kBaseLoad - 1e-12);
        prev = p;
    }
}

} // namespace
