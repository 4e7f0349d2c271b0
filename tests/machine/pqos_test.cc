/**
 * @file
 * Tests for the pqos/taskset command generation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "machine/pqos.hh"

namespace
{

using namespace ahq::machine;

TEST(CoreList, RendersRangesAndSingles)
{
    const CoreMask m(0b1'1010'0111); // cores 0-2, 5, 7-8
    EXPECT_EQ(coreList(m), "0-2,5,7-8");
    EXPECT_EQ(coreList(CoreMask()), "");
    EXPECT_EQ(coreList(CoreMask::firstN(1, 3)), "3");
}

RegionLayout
arqLikeLayout()
{
    RegionLayout layout({10, 20, 10});
    Region shared;
    shared.name = "shared";
    shared.shared = true;
    shared.members = {0, 1, 2};
    shared.res = {6, 12, 7};
    layout.addRegion(std::move(shared));
    Region iso;
    iso.name = "iso0";
    iso.shared = false;
    iso.members = {0};
    iso.res = {4, 8, 3};
    layout.addRegion(std::move(iso));
    return layout;
}

TEST(Pqos, ProgramEmitsCatMbaAssocAndAffinity)
{
    PqosProgrammer prog(MachineConfig::xeonE52630v4());
    const auto cmds = prog.program(arqLikeLayout());

    int cat = 0, mba = 0, assoc = 0, aff = 0;
    for (const auto &c : cmds) {
        switch (c.kind) {
          case HwCommand::Kind::CatDefine:
            ++cat;
            break;
          case HwCommand::Kind::MbaDefine:
            ++mba;
            break;
          case HwCommand::Kind::CosAssociate:
            ++assoc;
            break;
          case HwCommand::Kind::Affinity:
            ++aff;
            break;
        }
    }
    EXPECT_EQ(cat, 2);   // two regions with ways
    EXPECT_EQ(mba, 2);   // two regions with bandwidth units
    EXPECT_EQ(assoc, 2); // two regions with cores
    EXPECT_EQ(aff, 3);   // three apps
}

TEST(Pqos, CommandTextMatchesPqosDialect)
{
    PqosProgrammer prog(MachineConfig::xeonE52630v4());
    RegionLayout layout({10, 20, 10});
    Region only;
    only.name = "r";
    only.shared = true;
    only.members = {0};
    only.res = {4, 8, 5};
    layout.addRegion(std::move(only));

    const auto lines = PqosProgrammer::toShell(prog.program(layout));
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[0], "pqos -e \"llc:1=0xff\"");
    EXPECT_EQ(lines[1], "pqos -e \"mba:1=50\"");
    EXPECT_EQ(lines[2], "pqos -a \"llc:1=0-3\"");
    EXPECT_EQ(lines[3], "taskset -cp 0-3 $PID_APP0");
}

TEST(Pqos, PlaceholderPidWhenUnknown)
{
    PqosProgrammer prog(MachineConfig::xeonE52630v4());
    RegionLayout layout({10, 20, 10});
    Region only;
    only.name = "r";
    only.shared = true;
    only.members = {7};
    only.res = {2, 4, 0};
    layout.addRegion(std::move(only));
    const auto lines = PqosProgrammer::toShell(prog.program(layout));
    const bool found = std::any_of(
        lines.begin(), lines.end(), [](const std::string &l) {
            return l == "taskset -cp 0-1 $PID_APP7";
        });
    EXPECT_TRUE(found);
}

TEST(Pqos, AffinityCoversAllAppRegions)
{
    PqosProgrammer prog(MachineConfig::xeonE52630v4());
    const auto layout = arqLikeLayout();
    const auto lines = PqosProgrammer::toShell(prog.program(layout));
    // App 0 can run in the shared region (cores 0-5) and its iso
    // region (cores 6-9): the taskset must cover both.
    const bool found = std::any_of(
        lines.begin(), lines.end(), [](const std::string &l) {
            return l == "taskset -cp 0-9 $PID_APP0";
        });
    EXPECT_TRUE(found);
}


TEST(Pqos, GoldConfigElevenWayCat)
{
    // The Gold 6248 part has an 11-way CAT: masks must stay within
    // 11 bits and MBA percentages follow its 10-unit granularity.
    PqosProgrammer prog(MachineConfig::xeonGold6248());
    RegionLayout layout({20, 11, 10});
    Region r;
    r.name = "all";
    r.shared = true;
    r.members = {0};
    r.res = {20, 11, 10};
    layout.addRegion(std::move(r));
    const auto lines = PqosProgrammer::toShell(prog.program(layout));
    ASSERT_GE(lines.size(), 3u);
    EXPECT_EQ(lines[0], "pqos -e \"llc:1=0x7ff\"");
    EXPECT_EQ(lines[1], "pqos -e \"mba:1=100\"");
    EXPECT_EQ(lines[2], "pqos -a \"llc:1=0-19\"");
}

} // namespace
