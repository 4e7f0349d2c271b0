/**
 * @file
 * Tests for the fluent application-profile builder.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/builder.hh"

namespace
{

using namespace ahq::apps;

TEST(AppBuilder, BuildsCalibratedLcProfile)
{
    const auto p = AppBuilder("my-api")
                       .maxLoadQps(2500.0)
                       .tailThresholdMs(8.0)
                       .idealTailAt20Ms(3.0)
                       .cache(18.0, 3.0, 5.0)
                       .build();
    EXPECT_EQ(p.name, "my-api");
    EXPECT_TRUE(p.latencyCritical);
    EXPECT_EQ(p.threads, 4);
    // Anchors reproduced by the calibration.
    EXPECT_NEAR(p.soloTailPercentileMs(0.2, 0.95), 3.0, 0.03);
    EXPECT_NEAR(p.soloTailPercentileMs(1.0, 0.95), 8.0, 0.08);
    EXPECT_NEAR(p.cpi.mrc().mpkiMax(), 18.0, 1e-12);
}

TEST(AppBuilder, RejectsMissingLcAnchors)
{
    EXPECT_THROW((void)AppBuilder("x")
                     .maxLoadQps(1000.0)
                     .build(),
                 std::invalid_argument);
}

TEST(AppBuilder, RejectsInconsistentAnchors)
{
    // Ideal tail above the threshold.
    EXPECT_THROW((void)AppBuilder("x")
                     .maxLoadQps(1000.0)
                     .tailThresholdMs(2.0)
                     .idealTailAt20Ms(3.0)
                     .build(),
                 std::invalid_argument);
}

TEST(AppBuilder, RejectsBadTraits)
{
    EXPECT_THROW((void)AppBuilder("x")
                     .maxLoadQps(1000.0)
                     .tailThresholdMs(8.0)
                     .idealTailAt20Ms(3.0)
                     .cache(1.0, 5.0, 4.0) // max < min
                     .build(),
                 std::invalid_argument);
}

TEST(AppBuilder, BuiltProfileRunsInSimulator)
{
    const auto p = AppBuilder("svc")
                       .maxLoadQps(900.0)
                       .tailThresholdMs(12.0)
                       .idealTailAt20Ms(4.0)
                       .build();
    const auto d = p.toDemand(0.5);
    EXPECT_NEAR(d.arrivalRate, 450.0, 1e-9);
    EXPECT_GT(p.serviceTimeMs, 0.0);
}

} // namespace
