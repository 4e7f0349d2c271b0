/**
 * @file
 * PARTIES controller implementation.
 */

#include "sched/parties.hh"

#include <algorithm>
#include <cassert>

#include "obs/span.hh"

namespace ahq::sched
{

using machine::AppId;
using machine::kAllResourceKinds;
using machine::kNumResourceKinds;
using machine::RegionId;
using machine::RegionLayout;
using machine::ResourceKind;

void
Parties::reset()
{
    fsmIndex.clear();
    cooldown.clear();
    comfort.clear();
    trial = {};
    trialJustStarted = false;
}

void
Parties::onActuation(bool applied)
{
    const bool started = trialJustStarted;
    trialJustStarted = false;
    if (applied)
        return;
    obsScope().count("parties.actuation_failed");
    if (started && trial.active) {
        // The trial downsize never made it onto the knobs; cancel
        // the watch instead of later "reverting" a move that never
        // happened (which would strand a pool unit).
        trial.active = false;
        obsScope().count("parties.trial_aborted");
    }
}

RegionId
Parties::bePool(const RegionLayout &layout)
{
    return layout.sharedRegion();
}

machine::RegionLayout
Parties::initialLayout(const machine::MachineConfig &config,
                       const std::vector<AppObservation> &apps)
{
    // One isolated region per LC app plus one pooled region for all
    // BE apps; resources split evenly across those groups.
    std::vector<AppId> lc, be;
    splitKinds(apps, lc, be);

    const auto avail = config.availableResources();
    RegionLayout layout(avail);

    const int groups =
        static_cast<int>(lc.size()) + (be.empty() ? 0 : 1);
    assert(groups > 0);

    auto group_share = [&](ResourceKind kind, int index) {
        const int total = avail.get(kind);
        return total / groups + (index < total % groups ? 1 : 0);
    };

    int index = 0;
    for (AppId app : lc) {
        machine::Region r;
        r.name = "parties-iso" + std::to_string(app);
        r.shared = false;
        r.members = {app};
        for (ResourceKind kind : kAllResourceKinds)
            r.res.set(kind, group_share(kind, index));
        layout.addRegion(std::move(r));
        ++index;
    }
    if (!be.empty()) {
        machine::Region pool;
        pool.name = "parties-bepool";
        pool.shared = true;
        pool.members = be;
        for (ResourceKind kind : kAllResourceKinds)
            pool.res.set(kind, group_share(kind, index));
        layout.addRegion(std::move(pool));
    }
    assert(layout.valid());

    fsmIndex.assign(apps.size(), 0);
    cooldown.assign(apps.size(), 0);
    comfort.assign(apps.size(), 0);
    violatedBuf.reserve(apps.size());
    return layout;
}

namespace
{

/** Units a donor region must retain after donating one unit. */
int
donorFloor(ResourceKind kind)
{
    switch (kind) {
      case ResourceKind::Cores:
        return 2;
      case ResourceKind::LlcWays:
        return 3;
      case ResourceKind::MemBw:
        return 1;
    }
    return 1;
}

/**
 * An LC app donates to a violated one only when its slack exceeds
 * both kDonorMinSlack and the victim's slack plus kDonorSlackMargin.
 */
constexpr double kDonorMinSlack = 0.10;
constexpr double kDonorSlackMargin = 0.15;

} // namespace

bool
Parties::upsizeApp(RegionLayout &layout,
                   const std::vector<AppObservation> &obs, AppId app)
{
    const RegionId target = layout.isolatedRegionOf(app);
    if (target == machine::kNoRegion)
        return false;

    double victim_slack = 0.0;
    for (const auto &o : obs) {
        if (o.id == app)
            victim_slack = o.slack();
    }

    int &fsm = fsmIndex[static_cast<std::size_t>(app)];
    const int attempt = tryKindsInRotation(fsm, [&](ResourceKind kind) {
        // Preferred donor: the BE pool.
        const RegionId pool = bePool(layout);
        if (pool != machine::kNoRegion &&
            layout.moveResource(kind, pool, target)) {
            recordMove("upsize", app, kind, pool, target);
            return true;
        }

        // Fall back to the LC app with the largest slack, provided
        // it is clearly better off than the victim and would stay
        // safely provisioned after donating.
        AppId donor = machine::kNoApp;
        double best_slack =
            std::max(kDonorMinSlack, victim_slack + kDonorSlackMargin);
        for (const auto &o : obs) {
            if (!o.latencyCritical || o.id == app || !o.sampleValid)
                continue;
            const RegionId r = layout.isolatedRegionOf(o.id);
            if (r == machine::kNoRegion ||
                layout.region(r).res.get(kind) <=
                    donorFloor(kind))
                continue;
            if (o.slack() > best_slack) {
                best_slack = o.slack();
                donor = o.id;
            }
        }
        if (donor == machine::kNoApp)
            return false;
        const RegionId donor_region = layout.isolatedRegionOf(donor);
        if (!layout.moveResource(kind, donor_region, target))
            return false;
        recordMove("upsize", app, kind, donor_region, target);
        return true;
    });
    // Stay on the kind that moved; when nothing was movable this
    // interval, rotate the FSM for next time.
    fsm = (fsm + (attempt >= 0 ? attempt : 1)) % kNumResourceKinds;
    return attempt >= 0;
}

void
Parties::recordMove(const char *action, AppId app,
                    ResourceKind kind, RegionId from,
                    RegionId to) const
{
    const obs::Scope &scope = obsScope();
    if (scope.metrics != nullptr)
        scope.count(std::string("parties.") + action);
    if (!scope.tracing())
        return;
    obs::Event ev("parties_decision");
    ev.str("action", action)
        .integer("app", app)
        .str("kind", machine::toString(kind))
        .integer("from", from)
        .integer("to", to);
    scope.emit(ev);
}

void
Parties::adjust(RegionLayout &layout,
                const std::vector<AppObservation> &obs, double)
{
    // Slack below which an app is upsized. PARTIES reacts to actual
    // QoS violations, so the trigger sits just above zero slack.
    constexpr double kUpsizeSlack = 0.02;
    // Slack above which an app may be tentatively downsized.
    constexpr double kDownsizeSlack = 0.25;
    // Comfortable intervals required before a downsize trial.
    constexpr int kComfortStreak = 6;
    // Intervals a trial downsize is watched for a violation.
    constexpr int kTrialWatch = 4;
    // Cooldowns after a reverted (failed) and a committed
    // (successful) downsize.
    constexpr int kRevertCooldown = 40;
    constexpr int kCommitCooldown = 8;

    trialJustStarted = false;

    // Age the downsize cooldowns and track comfort streaks. A stale
    // sample (dropped measurement repeat) neither extends nor
    // resets a streak — it says nothing new about the app.
    for (int &c : cooldown) {
        if (c > 0)
            --c;
    }
    for (const auto &o : obs) {
        if (!o.latencyCritical || !o.sampleValid)
            continue;
        int &streak = comfort[static_cast<std::size_t>(o.id)];
        streak = o.slack() >= kUpsizeSlack ? streak + 1 : 0;
    }

    // 1) Watch the in-flight downsize trial: revert on violation,
    //    commit once the watch window passes cleanly. While the
    //    trial app's sample is stale the verdict is deferred — the
    //    watch window is held open rather than judged on a repeat.
    if (trial.active) {
        obs::Span trial_span(obsScope(), "parties.trial");
        bool trial_stale = false;
        for (const auto &o : obs) {
            if (o.id == trial.app && o.latencyCritical &&
                !o.sampleValid)
                trial_stale = true;
        }
        bool reverted = false;
        if (!trial_stale) {
            for (const auto &o : obs) {
                if (o.id == trial.app && o.latencyCritical &&
                    o.slack() < kUpsizeSlack) {
                    // Revert from the pool; if the pool unit was
                    // taken by someone else in the meantime,
                    // reclaim through the ordinary upsize path so
                    // the app cannot be stranded below its viable
                    // partition.
                    const RegionId pool = bePool(layout);
                    const RegionId region =
                        layout.isolatedRegionOf(trial.app);
                    bool undone = pool != machine::kNoRegion &&
                        region != machine::kNoRegion &&
                        layout.moveResource(trial.kind, pool,
                                            region);
                    if (!undone)
                        upsizeApp(layout, obs, trial.app);
                    cooldown[static_cast<std::size_t>(trial.app)] =
                        kRevertCooldown;
                    trial.active = false;
                    reverted = true;
                    recordMove("revert", trial.app, trial.kind,
                               bePool(layout),
                               layout.isolatedRegionOf(trial.app));
                    break;
                }
            }
            if (!reverted && --trial.watchLeft <= 0) {
                cooldown[static_cast<std::size_t>(trial.app)] =
                    kCommitCooldown;
                trial.active = false;
                recordMove("commit", trial.app, trial.kind,
                           layout.isolatedRegionOf(trial.app),
                           bePool(layout));
            }
        }
    }

    // 2) Upsize every violated LC app by one unit, worst first.
    bool any_violation = false;
    {
        obs::Span span(obsScope(), "parties.upsize");
        violatedBuf.clear();
        for (const auto &o : obs) {
            if (o.latencyCritical && o.sampleValid &&
                o.slack() < kUpsizeSlack)
                violatedBuf.push_back(&o);
        }
        any_violation = !violatedBuf.empty();
        std::sort(
            violatedBuf.begin(), violatedBuf.end(),
            [](const AppObservation *a, const AppObservation *b) {
                return a->slack() < b->slack();
            });
        for (const AppObservation *o : violatedBuf)
            upsizeApp(layout, obs, o->id);
    }

    // 3) With everyone comfortable for long enough and no trial in
    //    flight, tentatively downsize the most over-provisioned app
    //    to grow the BE pool.
    if (!any_violation && !trial.active) {
        obs::Span span(obsScope(), "parties.downsize");
        const AppObservation *richest = nullptr;
        for (const auto &o : obs) {
            if (!o.latencyCritical || !o.sampleValid ||
                o.slack() < kDownsizeSlack)
                continue;
            const auto id = static_cast<std::size_t>(o.id);
            if (cooldown[id] > 0 || comfort[id] < kComfortStreak)
                continue;
            if (!richest || o.slack() > richest->slack())
                richest = &o;
        }
        if (richest) {
            const RegionId region =
                layout.isolatedRegionOf(richest->id);
            const RegionId pool = bePool(layout);
            if (region != machine::kNoRegion &&
                pool != machine::kNoRegion) {
                // The trial tries kinds from the app's FSM position
                // but leaves the position where it was.
                tryKindsInRotation(
                    fsmIndex[static_cast<std::size_t>(richest->id)],
                    [&](ResourceKind kind) {
                        if (!layout.moveResource(kind, region, pool))
                            return false;
                        trial = {true, richest->id, kind, kTrialWatch};
                        trialJustStarted = true;
                        recordMove("downsize_trial", richest->id, kind,
                                   region, pool);
                        return true;
                    });
            }
        }
    }
}

} // namespace ahq::sched
