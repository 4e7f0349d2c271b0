/**
 * @file
 * Heracles-style controller implementation.
 */

#include "sched/heracles.hh"

#include <algorithm>
#include <cassert>

namespace ahq::sched
{

using machine::kAllResourceKinds;
using machine::kNumResourceKinds;
using machine::RegionLayout;
using machine::ResourceKind;

void
Heracles::reset()
{
    fsm = 0;
}

machine::RegionLayout
Heracles::initialLayout(const machine::MachineConfig &config,
                        const std::vector<AppObservation> &apps)
{
    std::vector<machine::AppId> lc, be;
    splitKinds(apps, lc, be);

    const auto avail = config.availableResources();
    RegionLayout layout(avail);

    // Start conservatively: most resources to the LC pool, a small
    // starter allocation for BE (Heracles grows it when safe).
    machine::Region lc_pool;
    lc_pool.name = "heracles-lc";
    lc_pool.shared = true;
    lc_pool.members = lc;
    machine::Region be_pool;
    be_pool.name = "heracles-be";
    be_pool.shared = true;
    be_pool.members = be;

    for (ResourceKind kind : kAllResourceKinds) {
        const int total = avail.get(kind);
        const int be_share = be.empty() ? 0 : std::max(1, total / 5);
        be_pool.res.set(kind, be_share);
        lc_pool.res.set(kind, total - be_share);
    }
    if (lc.empty()) {
        // Degenerate: BE-only node.
        be_pool.res = avail;
        lc_pool.res = {};
    }
    layout.addRegion(std::move(lc_pool));
    if (!be.empty())
        layout.addRegion(std::move(be_pool));
    assert(layout.valid());
    return layout;
}

void
Heracles::adjust(RegionLayout &layout,
                 const std::vector<AppObservation> &obs, double)
{
    if (layout.numRegions() < 2)
        return; // no BE pool to manage

    // The binding LC app drives the decision.
    double min_slack = 1.0;
    double max_load = 0.0;
    bool any_lc = false;
    for (const auto &o : obs) {
        if (!o.latencyCritical)
            continue;
        any_lc = true;
        min_slack = std::min(min_slack, o.slack());
        max_load = std::max(max_load, o.loadFraction);
    }
    if (!any_lc)
        return;

    // Slack below which BE work is shrunk ("disabled" region), and
    // above which it may grow.
    constexpr double kShrinkSlack = 0.10;
    constexpr double kGrowSlack = 0.25;
    // LC load fraction above which BE growth is frozen regardless of
    // slack (Heracles disallows BE growth near peak load).
    constexpr double kLoadFreeze = 0.85;
    const bool shrink = min_slack < kShrinkSlack;
    const bool may_grow = min_slack > kGrowSlack && max_load < kLoadFreeze;

    if (!shrink && !may_grow)
        return; // hold region: do nothing

    const machine::RegionId from = shrink ? kBePool : kLcPool;
    const machine::RegionId to = shrink ? kLcPool : kBePool;
    // Step past the kind that moved.
    const int attempt = tryKindsInRotation(fsm, [&](ResourceKind kind) {
        return layout.moveResource(kind, from, to);
    });
    fsm = (fsm + (attempt >= 0 ? attempt + 1 : 1)) % kNumResourceKinds;
}

} // namespace ahq::sched
