/**
 * @file
 * PqosProgrammer implementation.
 */

#include "machine/pqos.hh"

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
