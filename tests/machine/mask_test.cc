/**
 * @file
 * Tests for core affinity masks and CAT way masks.
 */

#include <gtest/gtest.h>

#include "machine/mask.hh"

namespace
{

using ahq::machine::CoreMask;
using ahq::machine::WayMask;

TEST(CoreMask, FirstN)
{
    EXPECT_EQ(CoreMask::firstN(4).bits(), 0xfull);
    EXPECT_EQ(CoreMask::firstN(4, 2).bits(), 0x3cull);
    EXPECT_EQ(CoreMask::firstN(0).bits(), 0ull);
    EXPECT_EQ(CoreMask::firstN(64).bits(), ~0ull);
}

TEST(CoreMask, Contains)
{
    CoreMask m = CoreMask::firstN(3, 1);
    EXPECT_EQ(m.bits(), 0xeull);
    EXPECT_FALSE(m.contains(0));
    EXPECT_TRUE(m.contains(1));
    EXPECT_TRUE(m.contains(3));
    EXPECT_FALSE(m.contains(4));
}

TEST(CoreMask, DefaultIsEmpty)
{
    CoreMask m;
    EXPECT_TRUE(m.empty());
    EXPECT_FALSE(CoreMask::firstN(1).empty());
}

TEST(CoreMask, Union)
{
    const CoreMask a = CoreMask::firstN(4);      // 0-3
    const CoreMask b = CoreMask::firstN(4, 2);   // 2-5
    EXPECT_EQ((a | b).bits(), 0x3full);
}

TEST(CoreMask, ToStringHex)
{
    EXPECT_EQ(CoreMask::firstN(4).toString(), "0xf");
}

TEST(WayMask, ContiguousBits)
{
    WayMask w(4, 3);
    EXPECT_EQ(w.bits(), 0x70ull);
    EXPECT_EQ(w.count(), 3);
    EXPECT_EQ(w.first(), 4);
}

TEST(WayMask, EmptyMask)
{
    WayMask w;
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.bits(), 0ull);
    EXPECT_EQ(w.count(), 0);
}

TEST(WayMask, ToStringHex)
{
    EXPECT_EQ(WayMask(0, 8).toString(), "0xff");
    EXPECT_EQ(WayMask(12, 8).toString(), "0xff000");
}

TEST(WayMask, FullWidth)
{
    WayMask w(0, 64);
    EXPECT_EQ(w.bits(), ~0ull);
}

} // namespace
