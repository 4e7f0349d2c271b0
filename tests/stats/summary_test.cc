/**
 * @file
 * Tests for batch sample summaries.
 */

#include <gtest/gtest.h>

#include "stats/summary.hh"

namespace
{

using ahq::stats::mean;

TEST(Means, Arithmetic)
{
    EXPECT_EQ(mean({}), 0.0);
    EXPECT_NEAR(mean({1.0, 2.0, 3.0}), 2.0, 1e-12);
}

} // namespace
