/**
 * @file
 * Tests for RegionLayout: invariants, moves and factories.
 */

#include <gtest/gtest.h>

#include <bit>

#include "machine/layout.hh"

namespace
{

using namespace ahq::machine;

RegionLayout
makeArq()
{
    return RegionLayout::arqInitial({10, 20, 10}, {0, 1, 2}, {3});
}

TEST(RegionLayout, FullySharedFactory)
{
    auto l = RegionLayout::fullyShared({10, 20, 10}, {0, 1, 2, 3});
    EXPECT_EQ(l.numRegions(), 1);
    EXPECT_TRUE(l.region(0).shared);
    EXPECT_EQ(l.region(0).res, (ResourceVector{10, 20, 10}));
    EXPECT_EQ(l.sharedRegion(), 0);
    EXPECT_TRUE(l.valid());
    EXPECT_EQ(l.allocated(), l.available());
    EXPECT_EQ(l.allApps(), (std::vector<AppId>{0, 1, 2, 3}));
}

TEST(RegionLayout, EvenlyIsolatedFactory)
{
    auto l = RegionLayout::evenlyIsolated({10, 20, 10}, {0, 1, 2});
    EXPECT_EQ(l.numRegions(), 3);
    EXPECT_TRUE(l.valid());
    // 10 cores over 3 apps -> 4, 3, 3.
    EXPECT_EQ(l.region(0).res.cores, 4);
    EXPECT_EQ(l.region(1).res.cores, 3);
    EXPECT_EQ(l.region(2).res.cores, 3);
    EXPECT_EQ(l.allocated(), (ResourceVector{10, 20, 10}));
    EXPECT_EQ(l.sharedRegion(), kNoRegion);
    EXPECT_EQ(l.isolatedRegionOf(1), 1);
}

TEST(RegionLayout, ArqInitialFactory)
{
    auto l = makeArq();
    EXPECT_EQ(l.numRegions(), 4); // shared + 3 iso
    EXPECT_EQ(l.sharedRegion(), 0);
    EXPECT_EQ(l.region(0).res, (ResourceVector{10, 20, 10}));
    for (AppId a : {0, 1, 2}) {
        const RegionId iso = l.isolatedRegionOf(a);
        ASSERT_NE(iso, kNoRegion);
        EXPECT_TRUE(l.region(iso).res.empty());
    }
    // BE app has no isolated region but reaches the shared one.
    EXPECT_EQ(l.isolatedRegionOf(3), kNoRegion);
    EXPECT_EQ(l.reachable(3, ResourceKind::Cores), 10);
    EXPECT_TRUE(l.valid());
}

TEST(RegionLayout, RegionsOfIncludesSharedAndIso)
{
    auto l = makeArq();
    const auto regions = l.regionsOf(0);
    EXPECT_EQ(regions.size(), 2u); // shared + own iso
    EXPECT_EQ(l.regionsOf(3).size(), 1u);
}

TEST(RegionLayout, MoveResourceHappyPath)
{
    auto l = makeArq();
    const RegionId iso = l.isolatedRegionOf(0);
    EXPECT_TRUE(l.moveResource(ResourceKind::Cores, 0, iso));
    EXPECT_EQ(l.region(iso).res.cores, 1);
    EXPECT_EQ(l.region(0).res.cores, 9);
    EXPECT_TRUE(l.valid());
    // Total reachable for app 0 is unchanged.
    EXPECT_EQ(l.reachable(0, ResourceKind::Cores), 10);
}

TEST(RegionLayout, MoveRefusesWhenSourceLacksUnits)
{
    auto l = makeArq();
    const RegionId iso = l.isolatedRegionOf(0);
    EXPECT_FALSE(l.moveResource(ResourceKind::Cores, iso, 0));
}

TEST(RegionLayout, MoveRefusesStrandingMembers)
{
    // Moving the shared region's last core away would strand the BE
    // app which lives only there.
    auto l = makeArq();
    const RegionId iso = l.isolatedRegionOf(0);
    for (int i = 0; i < 9; ++i)
        EXPECT_TRUE(l.moveResource(ResourceKind::Cores, 0, iso));
    EXPECT_EQ(l.region(0).res.cores, 1);
    EXPECT_FALSE(l.moveResource(ResourceKind::Cores, 0, iso));
    EXPECT_EQ(l.region(0).res.cores, 1); // unchanged after refusal
    EXPECT_TRUE(l.valid());
}

TEST(RegionLayout, MoveToSameRegionRefused)
{
    auto l = makeArq();
    EXPECT_FALSE(l.moveResource(ResourceKind::Cores, 0, 0));
}

TEST(RegionLayout, MoveMultipleUnits)
{
    auto l = makeArq();
    const RegionId iso = l.isolatedRegionOf(1);
    EXPECT_TRUE(l.moveResource(ResourceKind::LlcWays, 0, iso, 5));
    EXPECT_EQ(l.region(iso).res.llcWays, 5);
    EXPECT_EQ(l.region(0).res.llcWays, 15);
}

TEST(RegionLayout, ValidDetectsOverAllocation)
{
    RegionLayout l({4, 8, 4});
    Region r;
    r.name = "big";
    r.shared = true;
    r.members = {0};
    r.res = {5, 8, 4}; // more cores than available
    l.addRegion(std::move(r));
    EXPECT_FALSE(l.valid());
}

TEST(RegionLayout, ValidDetectsStrandedApp)
{
    RegionLayout l({4, 8, 4});
    Region r;
    r.name = "noway";
    r.shared = false;
    r.members = {0};
    r.res = {2, 0, 0}; // cores but no LLC way reachable
    l.addRegion(std::move(r));
    EXPECT_FALSE(l.valid());
}

TEST(RegionLayout, UnallocatedTracksLeftover)
{
    RegionLayout l({4, 8, 4});
    Region r;
    r.name = "half";
    r.shared = true;
    r.members = {0};
    r.res = {2, 4, 2};
    l.addRegion(std::move(r));
    // Leftover = available - allocated = {2, 4, 2}.
    EXPECT_EQ(l.available(), (ResourceVector{4, 8, 4}));
    EXPECT_EQ(l.allocated(), (ResourceVector{2, 4, 2}));
    EXPECT_TRUE(l.valid());
}

TEST(RegionLayout, ConcreteMasksAreDisjointAndSized)
{
    auto l = RegionLayout::evenlyIsolated({10, 20, 10}, {0, 1, 2});
    const ConcreteMasks masks = l.concreteMasks();
    ASSERT_EQ(masks.coreMasks.size(), 3u);
    ASSERT_EQ(masks.wayMasks.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(std::popcount(masks.coreMasks[i].bits()),
                  l.region(i).res.cores);
        EXPECT_EQ(std::popcount(masks.wayMasks[i].bits()),
                  l.region(i).res.llcWays);
    }
    // CAT masks must not overlap between isolated regions.
    EXPECT_EQ(masks.wayMasks[0].bits() & masks.wayMasks[1].bits(), 0u);
    EXPECT_EQ(masks.wayMasks[1].bits() & masks.wayMasks[2].bits(), 0u);
    EXPECT_EQ(masks.coreMasks[0].bits() & masks.coreMasks[1].bits(),
              0u);
}

TEST(RegionLayout, ToStringMentionsRegions)
{
    auto l = makeArq();
    const std::string s = l.toString();
    EXPECT_NE(s.find("shared"), std::string::npos);
    EXPECT_NE(s.find("iso0"), std::string::npos);
}

TEST(RegionLayout, HasMember)
{
    auto l = makeArq();
    EXPECT_TRUE(l.region(0).hasMember(3));
    EXPECT_FALSE(l.region(l.isolatedRegionOf(0)).hasMember(3));
}

} // namespace
