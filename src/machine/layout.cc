/**
 * @file
 * RegionLayout implementation.
 */

#include "machine/layout.hh"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace ahq::machine
{

bool
Region::hasMember(AppId app) const
{
    return std::find(members.begin(), members.end(), app) !=
        members.end();
}

RegionLayout::RegionLayout(ResourceVector available)
    : available_(available)
{
    assert(available.nonNegative());
}

RegionId
RegionLayout::addRegion(Region region)
{
    regions_.push_back(std::move(region));
    return static_cast<RegionId>(regions_.size()) - 1;
}

const Region &
RegionLayout::region(RegionId id) const
{
    assert(id >= 0 && id < numRegions());
    return regions_[static_cast<std::size_t>(id)];
}

Region &
RegionLayout::region(RegionId id)
{
    assert(id >= 0 && id < numRegions());
    return regions_[static_cast<std::size_t>(id)];
}

RegionId
RegionLayout::sharedRegion() const
{
    for (int i = 0; i < numRegions(); ++i) {
        if (regions_[static_cast<std::size_t>(i)].shared)
            return i;
    }
    return kNoRegion;
}

RegionId
RegionLayout::isolatedRegionOf(AppId app) const
{
    for (int i = 0; i < numRegions(); ++i) {
        const Region &r = regions_[static_cast<std::size_t>(i)];
        if (!r.shared && r.members.size() == 1 && r.members[0] == app)
            return i;
    }
    return kNoRegion;
}

std::vector<RegionId>
RegionLayout::regionsOf(AppId app) const
{
    std::vector<RegionId> out;
    for (int i = 0; i < numRegions(); ++i) {
        if (regions_[static_cast<std::size_t>(i)].hasMember(app))
            out.push_back(i);
    }
    return out;
}

std::vector<AppId>
RegionLayout::allApps() const
{
    std::vector<AppId> out;
    for (const Region &r : regions_) {
        for (AppId a : r.members) {
            if (std::find(out.begin(), out.end(), a) == out.end())
                out.push_back(a);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

ResourceVector
RegionLayout::allocated() const
{
    ResourceVector sum;
    for (const Region &r : regions_)
        sum += r.res;
    return sum;
}

int
RegionLayout::reachable(AppId app, ResourceKind kind) const
{
    int total = 0;
    for (const Region &r : regions_) {
        if (r.hasMember(app))
            total += r.res.get(kind);
    }
    return total;
}

bool
RegionLayout::valid() const
{
    for (const Region &r : regions_) {
        if (!r.res.nonNegative())
            return false;
    }
    if (!allocated().fitsWithin(available_))
        return false;
    // Enumerate members region by region instead of materialising
    // allApps(): valid() runs inside every moveResource (ARQ's
    // per-interval search), and the vector build was the search
    // path's only heap allocation. Apps in several regions are
    // simply re-checked — same predicate, no allocation.
    for (const Region &reg : regions_) {
        for (AppId app : reg.members) {
            if (reachable(app, ResourceKind::Cores) < 1)
                return false;
            if (reachable(app, ResourceKind::LlcWays) < 1)
                return false;
        }
    }
    return true;
}

bool
RegionLayout::moveResource(ResourceKind kind, RegionId from, RegionId to,
                           int units)
{
    assert(units > 0);
    assert(from >= 0 && from < numRegions());
    assert(to >= 0 && to < numRegions());
    if (from == to)
        return false;
    Region &src = region(from);
    Region &dst = region(to);
    if (src.res.get(kind) < units)
        return false;

    src.res.ref(kind) -= units;
    dst.res.ref(kind) += units;
    if (!valid()) {
        // Roll back; the move would strand some member application.
        src.res.ref(kind) += units;
        dst.res.ref(kind) -= units;
        return false;
    }
    return true;
}

ConcreteMasks
RegionLayout::concreteMasks() const
{
    ConcreteMasks masks;
    int next_core = 0;
    int next_way = 0;
    for (const Region &r : regions_) {
        masks.coreMasks.push_back(CoreMask::firstN(r.res.cores,
                                                   next_core));
        masks.wayMasks.push_back(WayMask(next_way, r.res.llcWays));
        next_core += r.res.cores;
        next_way += r.res.llcWays;
    }
    return masks;
}

std::string
RegionLayout::toString() const
{
    std::ostringstream os;
    os << "layout(available=" << available_.toString() << ")\n";
    for (int i = 0; i < numRegions(); ++i) {
        const Region &r = region(i);
        os << "  [" << i << "] " << r.name
           << (r.shared ? " (shared)" : " (isolated)") << " "
           << r.res.toString() << " members={";
        for (std::size_t m = 0; m < r.members.size(); ++m) {
            if (m)
                os << ",";
            os << r.members[m];
        }
        os << "}\n";
    }
    return os.str();
}

RegionLayout
RegionLayout::fullyShared(ResourceVector available,
                          const std::vector<AppId> &apps)
{
    RegionLayout layout(available);
    Region shared;
    shared.name = "shared";
    shared.shared = true;
    shared.res = available;
    shared.members = apps;
    layout.addRegion(std::move(shared));
    assert(layout.valid());
    return layout;
}

RegionLayout
RegionLayout::evenlyIsolated(ResourceVector available,
                             const std::vector<AppId> &apps)
{
    assert(!apps.empty());
    RegionLayout layout(available);
    const int n = static_cast<int>(apps.size());
    for (int i = 0; i < n; ++i) {
        Region r;
        r.name = "iso" + std::to_string(apps[static_cast<std::size_t>(i)]);
        r.shared = false;
        r.members = {apps[static_cast<std::size_t>(i)]};
        for (ResourceKind kind : kAllResourceKinds) {
            const int total = available.get(kind);
            const int base = total / n;
            const int extra = i < total % n ? 1 : 0;
            r.res.set(kind, base + extra);
        }
        layout.addRegion(std::move(r));
    }
    assert(layout.valid());
    return layout;
}

RegionLayout
RegionLayout::arqInitial(ResourceVector available,
                         const std::vector<AppId> &lc_apps,
                         const std::vector<AppId> &be_apps)
{
    RegionLayout layout(available);

    Region shared;
    shared.name = "shared";
    shared.shared = true;
    shared.res = available;
    shared.members = lc_apps;
    shared.members.insert(shared.members.end(), be_apps.begin(),
                          be_apps.end());
    layout.addRegion(std::move(shared));

    for (AppId app : lc_apps) {
        Region r;
        r.name = "iso" + std::to_string(app);
        r.shared = false;
        r.members = {app};
        r.res = {}; // grows on demand when the app is interfered with
        layout.addRegion(std::move(r));
    }
    assert(layout.valid());
    return layout;
}

} // namespace ahq::machine
