/**
 * @file
 * Tests for the workload catalogue against the paper's published
 * parameters (Tables II and IV, Section V).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "apps/catalog.hh"

namespace
{

using namespace ahq::apps;

std::uint64_t
bits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

TEST(Catalog, TableIvThresholds)
{
    EXPECT_DOUBLE_EQ(xapian().tailThresholdMs, 4.22);
    EXPECT_DOUBLE_EQ(moses().tailThresholdMs, 10.53);
    EXPECT_DOUBLE_EQ(imgDnn().tailThresholdMs, 3.98);
    EXPECT_DOUBLE_EQ(masstree().tailThresholdMs, 1.05);
    EXPECT_DOUBLE_EQ(sphinx().tailThresholdMs, 2682.0);
    EXPECT_DOUBLE_EQ(silo().tailThresholdMs, 1.27);
}

TEST(Catalog, TableIvMaxLoads)
{
    EXPECT_DOUBLE_EQ(xapian().maxLoadQps, 3400.0);
    EXPECT_DOUBLE_EQ(moses().maxLoadQps, 1800.0);
    EXPECT_DOUBLE_EQ(imgDnn().maxLoadQps, 5300.0);
    EXPECT_DOUBLE_EQ(masstree().maxLoadQps, 4420.0);
    EXPECT_DOUBLE_EQ(sphinx().maxLoadQps, 4.8);
    EXPECT_DOUBLE_EQ(silo().maxLoadQps, 220.0);
}

TEST(Catalog, TableIiIdealTails)
{
    // Table II's TL_i0 column at 20% load.
    EXPECT_NEAR(xapian().soloTailPercentileMs(0.2, 0.95), 2.77, 0.02);
    EXPECT_NEAR(moses().soloTailPercentileMs(0.2, 0.95), 2.80, 0.02);
    EXPECT_NEAR(imgDnn().soloTailPercentileMs(0.2, 0.95), 1.41, 0.02);
}

TEST(Catalog, LcAppsHaveFourThreads)
{
    // "These LC applications are from Tailbench and are instantiated
    // with 4 threads" (Section V).
    for (const char *name :
         {"xapian", "moses", "img-dnn", "masstree", "sphinx",
          "silo"}) {
        EXPECT_EQ(byName(name).threads, 4) << name;
        EXPECT_TRUE(byName(name).latencyCritical) << name;
    }
}

TEST(Catalog, StreamHasTenThreads)
{
    // "we instantiate Stream with 10 threads" (Section V).
    const AppProfile s = stream();
    EXPECT_EQ(s.threads, 10);
    EXPECT_FALSE(s.latencyCritical);
}

TEST(Catalog, BeAppsAreBestEffort)
{
    for (const char *name :
         {"fluidanimate", "streamcluster", "stream"}) {
        const AppProfile p = byName(name);
        EXPECT_FALSE(p.latencyCritical) << name;
        EXPECT_GT(p.ipcSolo, 0.0) << name;
    }
}

TEST(Catalog, StreamIsBandwidthBound)
{
    // Flat MRC, high demand: the defining traits of STREAM.
    const AppProfile s = stream();
    const double reducible =
        s.cpi.mrc().mpkiMax() - s.cpi.mrc().mpkiMin();
    EXPECT_LT(reducible, 10.0);
    EXPECT_GT(s.cpi.mrc().mpkiMin(), 40.0);
    EXPECT_GE(s.cpi.traits().mlp, 4.0);
}

TEST(Catalog, StreamclusterIsCacheSensitive)
{
    const AppProfile s = streamcluster();
    const double reducible =
        s.cpi.mrc().mpkiMax() - s.cpi.mrc().mpkiMin();
    EXPECT_GT(reducible, 15.0);
}

TEST(Catalog, AllNamesResolve)
{
    for (const auto &name : allNames())
        EXPECT_NO_THROW((void)byName(name)) << name;
    EXPECT_EQ(allNames().size(), 9u);
}

TEST(Catalog, UnknownNameThrows)
{
    EXPECT_THROW((void)byName("redis"), std::invalid_argument);
    EXPECT_THROW((void)byName(""), std::invalid_argument);
    EXPECT_THROW((void)byName("Xapian"), std::invalid_argument);
}

/**
 * Each LC profile is calibrated once per process and returned by
 * copy. The bit patterns of the calibrated queueing parameters are
 * pinned, so caching the profile cannot change a single bit of what
 * calibration produces, and every way of asking for a profile
 * returns the same one.
 */
TEST(Catalog, LcProfilesKeepTheirCalibratedBits)
{
    struct Pin
    {
        const char *name;
        AppProfile (*maker)();
        std::uint64_t serviceTimeMs, svcP95Mult, baseLatencyMs;
    };
    static const Pin kPins[] = {
        {"xapian", xapian, 0x3fea413cf106d694ULL, 0x4006f52f3152de44ULL,
         0x3fda978d4fdf3b64ULL},
        {"moses", moses, 0x3ffdf3fa3268d0f0ULL, 0x3ff45757572c987fULL,
         0x3fdae147ae147ae1ULL},
        {"img-dnn", imgDnn, 0x3fe44915298c9a2aULL, 0x3ffe3ff3e6fd2f05ULL,
         0x3fcb126e978d4fdfULL},
        {"masstree", masstree, 0x3fdfe40b543d444eULL,
         0x3ff131d66a981369ULL, 0x3fb83126e978d4feULL},
        {"sphinx", sphinx, 0x4082e41c052bd8f4ULL, 0x40004f858e8f54d4ULL,
         0x406b300000000000ULL},
        {"silo", silo, 0x4019cab72cf702a0ULL, 0x3fb79f7a4225bf52ULL,
         0x3fbae147ae147ae1ULL},
    };
    for (const Pin &pin : kPins) {
        const AppProfile first = pin.maker();
        EXPECT_EQ(first.name, pin.name);
        EXPECT_EQ(bits(first.serviceTimeMs), pin.serviceTimeMs)
            << pin.name;
        EXPECT_EQ(bits(first.svcP95Mult), pin.svcP95Mult) << pin.name;
        EXPECT_EQ(bits(first.baseLatencyMs), pin.baseLatencyMs)
            << pin.name;
        for (const AppProfile &again : {pin.maker(), byName(pin.name)}) {
            EXPECT_EQ(again.name, first.name);
            EXPECT_EQ(again.threads, first.threads) << pin.name;
            for (const auto &[a, b] :
                 {std::pair{again.serviceTimeMs, first.serviceTimeMs},
                  {again.svcP95Mult, first.svcP95Mult},
                  {again.baseLatencyMs, first.baseLatencyMs},
                  {again.tailThresholdMs, first.tailThresholdMs},
                  {again.maxLoadQps, first.maxLoadQps}})
                EXPECT_EQ(bits(a), bits(b)) << pin.name;
        }
    }
}

} // namespace
