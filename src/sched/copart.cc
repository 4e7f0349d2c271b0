/**
 * @file
 * CoPart-style fairness baseline implementation.
 */

#include "sched/copart.hh"

#include <algorithm>
#include <cassert>

namespace ahq::sched
{

using machine::AppId;
using machine::kNumResourceKinds;
using machine::RegionId;
using machine::RegionLayout;
using machine::ResourceKind;

void
CoPart::reset()
{
    fsmIndex.clear();
}

double
CoPart::slowdownOf(const AppObservation &o)
{
    if (o.latencyCritical) {
        const double ideal = std::max(o.idealP95Ms, 1e-9);
        return std::max(1.0, o.p95Ms / ideal);
    }
    const double real = std::max(o.ipc, 1e-9);
    return std::max(1.0, o.ipcSolo / real);
}

machine::RegionLayout
CoPart::initialLayout(const machine::MachineConfig &config,
                      const std::vector<AppObservation> &apps)
{
    // One strictly isolated partition per application — BE apps get
    // their own partitions too (CoPart treats everyone alike).
    std::vector<AppId> everyone;
    for (const auto &a : apps)
        everyone.push_back(a.id);
    fsmIndex.assign(apps.size(), 0);
    return RegionLayout::evenlyIsolated(config.availableResources(),
                                        everyone);
}

void
CoPart::adjust(RegionLayout &layout,
               const std::vector<AppObservation> &obs, double)
{
    if (obs.size() < 2)
        return;

    // Identify the most- and least-slowed applications.
    const AppObservation *worst = nullptr;
    const AppObservation *best = nullptr;
    for (const auto &o : obs) {
        if (!worst || slowdownOf(o) > slowdownOf(*worst))
            worst = &o;
        if (!best || slowdownOf(o) < slowdownOf(*best))
            best = &o;
    }
    assert(worst && best);
    if (worst->id == best->id)
        return;
    // Minimum slowdown ratio between the most- and least-slowed
    // apps before a transfer happens (hysteresis).
    constexpr double kImbalanceThreshold = 1.10;
    if (slowdownOf(*worst) < kImbalanceThreshold * slowdownOf(*best))
        return; // fair enough already

    const RegionId to = layout.isolatedRegionOf(worst->id);
    const RegionId from = layout.isolatedRegionOf(best->id);
    if (to == machine::kNoRegion || from == machine::kNoRegion)
        return;

    // Step past the kind that moved, so successive transfers spread
    // across kinds.
    int &fsm = fsmIndex[static_cast<std::size_t>(worst->id)];
    const int attempt = tryKindsInRotation(fsm, [&](ResourceKind kind) {
        return layout.moveResource(kind, from, to);
    });
    fsm = (fsm + (attempt >= 0 ? attempt + 1 : 1)) % kNumResourceKinds;
}

} // namespace ahq::sched
