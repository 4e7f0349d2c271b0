/**
 * @file
 * Tests for MachineConfig.
 */

#include <gtest/gtest.h>

#include "machine/config.hh"

namespace
{

using ahq::machine::MachineConfig;
using ahq::machine::ResourceVector;

TEST(MachineConfig, PaperTestbedMatchesTableIII)
{
    const MachineConfig c = MachineConfig::xeonE52630v4();
    EXPECT_EQ(c.totalCores, 10);
    EXPECT_EQ(c.totalLlcWays, 20);
    EXPECT_DOUBLE_EQ(c.llcSizeMib, 25.0);
    EXPECT_TRUE(c.valid());
    EXPECT_GT(c.gibpsPerBwUnit(), 0.0);
}

TEST(MachineConfig, AvailableDefaultsToTotal)
{
    const MachineConfig c = MachineConfig::xeonE52630v4();
    EXPECT_EQ(c.availableResources(),
              (ResourceVector{10, 20, 10}));
}

TEST(MachineConfig, WithAvailableRestricts)
{
    const MachineConfig c =
        MachineConfig::xeonE52630v4().withAvailable(6, 12, 5);
    EXPECT_EQ(c.availableResources(), (ResourceVector{6, 12, 5}));
    EXPECT_EQ(c.totalCores, 10);
    EXPECT_TRUE(c.valid());
}

TEST(MachineConfig, InvalidConfigsDetected)
{
    MachineConfig c = MachineConfig::xeonE52630v4();
    c.availableCores = 11; // more than physical
    EXPECT_FALSE(c.valid());
    c = MachineConfig::xeonE52630v4();
    c.availableCores = 0;
    EXPECT_FALSE(c.valid());
    c = MachineConfig::xeonE52630v4();
    c.llcSizeMib = -1.0;
    EXPECT_FALSE(c.valid());
}

} // namespace
