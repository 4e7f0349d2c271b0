/**
 * @file
 * PqosProgrammer implementation.
 */

#include "machine/pqos.hh"

#include <cassert>
#include <cstdio>

namespace ahq::machine
{

std::string
coreList(const CoreMask &mask)
{
    std::string out;
    int run_start = -1;
    int prev = -2;
    auto flush = [&](int end) {
        if (run_start < 0)
            return;
        if (!out.empty())
            out += ",";
        if (end == run_start)
            out += std::to_string(run_start);
        else
            out += std::to_string(run_start) + "-" +
                std::to_string(end);
    };
    for (int c = 0; c < 64; ++c) {
        if (!mask.contains(c))
            continue;
        if (c != prev + 1) {
            flush(prev);
            run_start = c;
        }
        prev = c;
    }
    flush(prev);
    return out;
}

PqosProgrammer::PqosProgrammer(MachineConfig config)
    : config_(std::move(config))
{
}

std::string
PqosProgrammer::coreListOf(const RegionLayout &layout,
                           const ConcreteMasks &masks,
                           AppId app) const
{
    CoreMask combined;
    for (RegionId r : layout.regionsOf(app)) {
        combined = combined |
            masks.coreMasks[static_cast<std::size_t>(r)];
    }
    return coreList(combined);
}

std::vector<HwCommand>
PqosProgrammer::program(const RegionLayout &layout) const
{
    std::vector<HwCommand> cmds;
    const ConcreteMasks masks = layout.concreteMasks();
    char buf[128];

    for (RegionId r = 0; r < layout.numRegions(); ++r) {
        const int cos = r + 1; // COS0 stays the system default
        const auto &way_mask =
            masks.wayMasks[static_cast<std::size_t>(r)];
        if (!way_mask.empty()) {
            std::snprintf(buf, sizeof(buf), "pqos -e \"llc:%d=0x%llx\"",
                          cos,
                          static_cast<unsigned long long>(
                              way_mask.bits()));
            cmds.push_back({HwCommand::Kind::CatDefine, buf});
        }
        const int bw_units = layout.region(r).res.memBw;
        if (bw_units > 0) {
            const int percent =
                100 * bw_units / config_.totalMemBwUnits;
            std::snprintf(buf, sizeof(buf), "pqos -e \"mba:%d=%d\"",
                          cos, percent);
            cmds.push_back({HwCommand::Kind::MbaDefine, buf});
        }
        const auto &core_mask =
            masks.coreMasks[static_cast<std::size_t>(r)];
        if (!core_mask.empty()) {
            std::snprintf(buf, sizeof(buf), "pqos -a \"llc:%d=%s\"",
                          cos, coreList(core_mask).c_str());
            cmds.push_back({HwCommand::Kind::CosAssociate, buf});
        }
    }

    for (AppId app : layout.allApps()) {
        const std::string cores = coreListOf(layout, masks, app);
        if (cores.empty())
            continue;
        std::snprintf(buf, sizeof(buf), "taskset -cp %s $PID_APP%d",
                      cores.c_str(), app);
        cmds.push_back({HwCommand::Kind::Affinity, buf});
    }
    return cmds;
}

std::vector<HwCommand>
PqosProgrammer::delta(const RegionLayout &before,
                      const RegionLayout &after) const
{
    assert(before.numRegions() == after.numRegions());
    const auto full = program(after);
    const ConcreteMasks masks_before = before.concreteMasks();
    const ConcreteMasks masks_after = after.concreteMasks();

    // Which regions changed any resource?
    std::vector<bool> region_changed(
        static_cast<std::size_t>(after.numRegions()), false);
    for (RegionId r = 0; r < after.numRegions(); ++r) {
        region_changed[static_cast<std::size_t>(r)] =
            !(before.region(r).res == after.region(r).res);
    }

    // Which apps' reachable cores moved?
    std::vector<AppId> apps = after.allApps();
    std::vector<bool> app_changed;
    for (AppId app : apps) {
        CoreMask b, a;
        for (RegionId r : before.regionsOf(app))
            b = b | masks_before.coreMasks[
                static_cast<std::size_t>(r)];
        for (RegionId r : after.regionsOf(app))
            a = a | masks_after.coreMasks[
                static_cast<std::size_t>(r)];
        app_changed.push_back(!(b == a));
    }

    std::vector<HwCommand> cmds;
    std::size_t app_cursor = 0;
    for (const auto &cmd : full) {
        if (cmd.kind == HwCommand::Kind::Affinity) {
            if (app_changed[app_cursor])
                cmds.push_back(cmd);
            ++app_cursor;
        } else {
            // Region-scoped commands embed their class of service
            // as "llc:<cos>=" / "mba:<cos>=", and cos = region + 1.
            const auto colon = cmd.text.find(':');
            const int cos = std::stoi(cmd.text.substr(colon + 1));
            const auto r = static_cast<std::size_t>(cos - 1);
            if (r < region_changed.size() && region_changed[r])
                cmds.push_back(cmd);
        }
    }
    return cmds;
}

std::vector<std::string>
PqosProgrammer::toShell(const std::vector<HwCommand> &commands)
{
    std::vector<std::string> lines;
    lines.reserve(commands.size());
    for (const auto &c : commands)
        lines.push_back(c.text);
    return lines;
}

} // namespace ahq::machine
