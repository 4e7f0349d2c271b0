/**
 * @file
 * Tests for load traces.
 */

#include <gtest/gtest.h>

#include "trace/load_trace.hh"

namespace
{

using namespace ahq::trace;

TEST(ConstantTrace, AlwaysSameValue)
{
    ConstantTrace t(0.4);
    EXPECT_EQ(t.at(0.0), 0.4);
    EXPECT_EQ(t.at(1e6), 0.4);
}

TEST(StepTrace, StepsAtBoundaries)
{
    StepTrace t({{0.0, 0.1}, {10.0, 0.5}, {20.0, 0.9}});
    EXPECT_EQ(t.at(0.0), 0.1);
    EXPECT_EQ(t.at(9.999), 0.1);
    EXPECT_EQ(t.at(10.0), 0.5);
    EXPECT_EQ(t.at(15.0), 0.5);
    EXPECT_EQ(t.at(20.0), 0.9);
    EXPECT_EQ(t.at(1e6), 0.9);
}

TEST(StepTrace, FirstLevelAppliesBeforeStart)
{
    StepTrace t({{5.0, 0.3}});
    EXPECT_EQ(t.at(0.0), 0.3);
}

TEST(DiurnalTrace, OscillatesBetweenBounds)
{
    DiurnalTrace t(0.1, 0.9, 100.0);
    EXPECT_NEAR(t.at(0.0), 0.1, 1e-9);    // trough
    EXPECT_NEAR(t.at(50.0), 0.9, 1e-9);   // peak
    EXPECT_NEAR(t.at(100.0), 0.1, 1e-9);  // next trough
    for (double time = 0.0; time < 200.0; time += 3.7) {
        EXPECT_GE(t.at(time), 0.1 - 1e-9);
        EXPECT_LE(t.at(time), 0.9 + 1e-9);
    }
}

TEST(Fig13Trace, MatchesPaperTimeline)
{
    const auto t = fig13XapianTrace();
    EXPECT_NEAR(t->at(5.0), 0.10, 1e-12);
    EXPECT_NEAR(t->at(25.0), 0.30, 1e-12);
    EXPECT_NEAR(t->at(110.0), 0.70, 1e-12);
    EXPECT_NEAR(t->at(130.0), 0.90, 1e-12);
    EXPECT_NEAR(t->at(245.0), 0.10, 1e-12);
    // Load never exceeds 90% and never drops below 10%.
    for (double time = 0.0; time <= 250.0; time += 1.0) {
        EXPECT_GE(t->at(time), 0.10 - 1e-12);
        EXPECT_LE(t->at(time), 0.90 + 1e-12);
    }
}

} // namespace
