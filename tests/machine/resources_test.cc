/**
 * @file
 * Tests for ResourceVector and ResourceKind.
 */

#include <gtest/gtest.h>

#include "machine/resources.hh"

namespace
{

using namespace ahq::machine;

TEST(ResourceKind, Names)
{
    EXPECT_EQ(toString(ResourceKind::Cores), "cores");
    EXPECT_EQ(toString(ResourceKind::LlcWays), "llc_ways");
    EXPECT_EQ(toString(ResourceKind::MemBw), "mem_bw");
}

TEST(ResourceVector, GetSetByKind)
{
    ResourceVector v;
    v.set(ResourceKind::Cores, 4);
    v.set(ResourceKind::LlcWays, 10);
    v.set(ResourceKind::MemBw, 3);
    EXPECT_EQ(v.get(ResourceKind::Cores), 4);
    EXPECT_EQ(v.get(ResourceKind::LlcWays), 10);
    EXPECT_EQ(v.get(ResourceKind::MemBw), 3);
    EXPECT_EQ(v.cores, 4);
}

TEST(ResourceVector, RefMutation)
{
    ResourceVector v{1, 2, 3};
    v.ref(ResourceKind::Cores) += 5;
    EXPECT_EQ(v.cores, 6);
}

TEST(ResourceVector, Arithmetic)
{
    const ResourceVector a{4, 10, 5};
    const ResourceVector b{1, 3, 2};
    ResourceVector c = a;
    c += b;
    EXPECT_EQ(c, (ResourceVector{5, 13, 7}));
}

TEST(ResourceVector, Predicates)
{
    EXPECT_TRUE((ResourceVector{0, 0, 0}).empty());
    EXPECT_FALSE((ResourceVector{1, 0, 0}).empty());
    EXPECT_TRUE((ResourceVector{1, 2, 3}).nonNegative());
    EXPECT_FALSE((ResourceVector{1, -1, 3}).nonNegative());
    EXPECT_TRUE((ResourceVector{1, 2, 3})
                    .fitsWithin(ResourceVector{2, 2, 3}));
    EXPECT_FALSE((ResourceVector{3, 2, 3})
                     .fitsWithin(ResourceVector{2, 2, 3}));
}

TEST(ResourceVector, ToString)
{
    const ResourceVector v{2, 5, 1};
    EXPECT_EQ(v.toString(), "{cores=2, ways=5, bw=1}");
}

TEST(ResourceVector, RotationOrderMatchesPartiesFsm)
{
    // The FSM order matters to the schedulers: cores, then ways,
    // then bandwidth.
    EXPECT_EQ(kAllResourceKinds[0], ResourceKind::Cores);
    EXPECT_EQ(kAllResourceKinds[1], ResourceKind::LlcWays);
    EXPECT_EQ(kAllResourceKinds[2], ResourceKind::MemBw);
    EXPECT_EQ(kNumResourceKinds, 3);
}

} // namespace
