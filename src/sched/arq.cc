/**
 * @file
 * ARQ controller implementation.
 */

#include "sched/arq.hh"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/span.hh"

namespace ahq::sched
{

using machine::AppId;
using machine::kAllResourceKinds;
using machine::kNoRegion;
using machine::kNumResourceKinds;
using machine::RegionId;
using machine::RegionLayout;
using machine::ResourceKind;

namespace
{

/**
 * Intervals to let the system settle after an adjustment before
 * judging it by E_S: the adjustment interval itself carries the
 * one-off repartitioning overhead (cache warm-up, migration), which
 * would otherwise make every beneficial move look like an entropy
 * increase and be rolled back.
 */
constexpr int kSettleEpochs = 1;

} // namespace

Arq::Arq(ArqConfig config)
    : cfg(config)
{
}

void
Arq::reset()
{
    prevEs = 1.0;
    isAdjust = false;
    settleLeft = 0;
    lastAction_ = nullptr;
    lastMove = {};
    banUntil.clear();
    fsmIndex.clear();
    lastGoodRet.clear();
    retBuf.clear();
    report = {};
}

void
Arq::onActuation(bool applied)
{
    if (applied || lastAction_ == nullptr)
        return;
    obsScope().count("arq.actuation_failed");
    if (lastAction_ == std::string("move")) {
        // The move never reached the knobs: forget it, or the next
        // interval would judge (and possibly roll back) a phantom
        // adjustment and mis-move a unit.
        isAdjust = false;
        settleLeft = 0;
        lastMove = {};
    } else if (lastAction_ == std::string("rollback")) {
        // The cancellation failed, so the bad move is still live on
        // the knobs; re-arm so the rollback is retried while E_S
        // stays elevated.
        isAdjust = true;
    }
    // hold/settle/skip mutate nothing, so they can never fail to
    // take effect (the injector reports ok for no-op decisions).
}

machine::RegionLayout
Arq::initialLayout(const machine::MachineConfig &config,
                   const std::vector<AppObservation> &apps)
{
    std::vector<AppId> lc, be;
    splitKinds(apps, lc, be);
    // Either layout holds one shared region plus one isolated
    // region per LC app.
    banUntil.assign(lc.size() + 1,
                    -std::numeric_limits<double>::infinity());
    fsmIndex.assign(lc.size() + 1, 0);
    if (cfg.sharedRegionEnabled) {
        return RegionLayout::arqInitial(config.availableResources(),
                                        lc, be);
    }

    // Ablation: full isolation. LC apps get even isolated regions;
    // the "shared" region holds only BE apps (an ordinary BE pool).
    const auto avail = config.availableResources();
    RegionLayout layout(avail);
    const int groups =
        static_cast<int>(lc.size()) + (be.empty() ? 0 : 1);
    auto share = [&](ResourceKind kind, int index) {
        const int total = avail.get(kind);
        return total / groups + (index < total % groups ? 1 : 0);
    };
    machine::Region pool;
    pool.name = "shared";
    pool.shared = true;
    pool.members = be;
    for (ResourceKind kind : kAllResourceKinds)
        pool.res.set(kind, share(kind, 0));
    layout.addRegion(std::move(pool));
    int index = 1;
    for (AppId app : lc) {
        machine::Region r;
        r.name = "iso" + std::to_string(app);
        r.shared = false;
        r.members = {app};
        for (ResourceKind kind : kAllResourceKinds)
            r.res.set(kind, share(kind, index));
        layout.addRegion(std::move(r));
        ++index;
    }
    assert(layout.valid());
    return layout;
}

void
Arq::remainingToleranceInto(const std::vector<AppObservation> &obs,
                            std::vector<Tolerance> &ret) const
{
    AppId max_id = -1;
    for (const auto &o : obs)
        max_id = std::max(max_id, o.id);
    ret.assign(static_cast<std::size_t>(max_id + 1), Tolerance{});
    for (const auto &o : obs) {
        if (!o.latencyCritical)
            continue;
        const core::LcBreakdown b = core::lcBreakdown(
            {o.idealP95Ms, o.p95Ms, o.thresholdMs});
        ret[static_cast<std::size_t>(o.id)] = {
            b.remainingTolerance, b.intolerable, true};
    }
}

RegionId
Arq::findVictimRegion(const RegionLayout &layout,
                      const std::vector<Tolerance> &ret,
                      double now_s) const
{
    // Traverse the ReT array in descending order (Algorithm 1,
    // FINDVICTIMREGION). The array is AppId-indexed, so ascending
    // AppId enumeration plus the reverse pair sort reproduce the
    // exact traversal order of the former ordered-map walk.
    orderBuf.clear();
    for (std::size_t i = 0; i < ret.size(); ++i) {
        if (ret[i].lc)
            orderBuf.emplace_back(ret[i].ret,
                                  static_cast<AppId>(i));
    }
    std::sort(orderBuf.rbegin(), orderBuf.rend());

    // ReT above which an LC app may donate isolated resources.
    constexpr double kVictimRetThreshold = 0.10;
    auto banned = [&](RegionId r) {
        return now_s < banUntil[static_cast<std::size_t>(r)];
    };
    for (const auto &[r, app] : orderBuf) {
        if (r <= kVictimRetThreshold)
            break;
        const RegionId iso = layout.isolatedRegionOf(app);
        if (iso == kNoRegion)
            continue;
        if (banned(iso))
            continue; // region is penalty-banned
        if (layout.region(iso).res.empty())
            continue; // nothing to donate
        return iso;
    }
    // The shared region is the fallback donor, but it too can be
    // penalty-banned after a rolled-back adjustment.
    const RegionId shared = layout.sharedRegion();
    if (shared != kNoRegion && banned(shared))
        return kNoRegion;
    return shared;
}

RegionId
Arq::findBeneficiaryRegion(const RegionLayout &layout,
                           const std::vector<Tolerance> &ret) const
{
    // Identify the application with the smallest ReT (Algorithm 1,
    // FINDBENEFICIARYREGION). ReT saturates at 0 for every violated
    // app, so ties are broken towards the largest intolerable
    // interference Q_i — the app hurting the most. Ascending AppId
    // enumeration keeps the former map's first-seen tie behaviour.
    AppId poorest = machine::kNoApp;
    Tolerance worst{2.0, -1.0, false};
    for (std::size_t i = 0; i < ret.size(); ++i) {
        const Tolerance &t = ret[i];
        if (!t.lc)
            continue;
        const bool better = t.ret < worst.ret ||
            (t.ret == worst.ret && t.q > worst.q);
        if (better) {
            worst = t;
            poorest = static_cast<AppId>(i);
        }
    }
    // ReT below which an LC app's isolated region is grown. A bit
    // above the paper's 0.05 wording so the controller leaves the
    // app measurable headroom against monitoring noise instead of
    // parking its tail latency exactly on the QoS threshold.
    constexpr double kBeneficiaryRetThreshold = 0.08;
    if (poorest != machine::kNoApp &&
        worst.ret < kBeneficiaryRetThreshold) {
        const RegionId iso = layout.isolatedRegionOf(poorest);
        if (iso != kNoRegion)
            return iso;
    }
    return layout.sharedRegion();
}

bool
Arq::adjustResource(RegionLayout &layout,
                    const std::vector<Tolerance> &ret, double now_s)
{
    const RegionId victim = findVictimRegion(layout, ret, now_s);
    const RegionId beneficiary = findBeneficiaryRegion(layout, ret);
    if (victim == kNoRegion || beneficiary == kNoRegion)
        return false;
    if (victim == beneficiary)
        return false; // equilibrium: nobody needs or donates

    // FINDVICTIMRESOURCE: a PARTIES-style FSM over resource types,
    // staying on the type that moved and advancing when none could.
    int &fsm = fsmIndex[static_cast<std::size_t>(victim)];
    const int attempt = tryKindsInRotation(fsm, [&](ResourceKind kind) {
        if (!layout.moveResource(kind, victim, beneficiary))
            return false;
        lastMove = {kind, victim, beneficiary};
        return true;
    });
    fsm = (fsm + (attempt >= 0 ? attempt : 1)) % kNumResourceKinds;
    return attempt >= 0;
}

void
Arq::adjust(RegionLayout &layout,
            const std::vector<AppObservation> &obs, double now_s)
{
    const obs::Scope &scope = obsScope();

    // Monitor: compute E_S and the ReT array.
    std::vector<Tolerance> &ret = retBuf;
    {
        obs::Span span(scope, "arq.monitor");
        lcBuf.clear();
        beBuf.clear();
        for (const auto &o : obs) {
            if (o.latencyCritical)
                lcBuf.push_back(
                    {o.idealP95Ms, o.p95Ms, o.thresholdMs});
            else
                beBuf.push_back({o.ipcSolo, o.ipc});
        }
        core::computeEntropyInto(lcBuf, beBuf,
                                 cfg.relativeImportance, report);
        remainingToleranceInto(obs, ret);
    }
    const double es = report.eS;

    // Hold the last good ReT per app: a dropped sample repeats the
    // previous delivery, and the controller must not mistake that
    // staleness for a fresh reading.
    bool degraded = false;
    if (lastGoodRet.size() < ret.size())
        lastGoodRet.resize(ret.size());
    for (const auto &o : obs) {
        if (!o.sampleValid)
            degraded = true;
        if (!o.latencyCritical)
            continue;
        const auto id = static_cast<std::size_t>(o.id);
        if (o.sampleValid) {
            lastGoodRet[id] = ret[id];
        } else if (lastGoodRet[id].lc) {
            ret[id] = lastGoodRet[id];
        }
    }

    const char *action = "hold";
    double ban_until = -1.0;

    // Let the last adjustment's one-off repartitioning overhead
    // drain before judging it by E_S.
    if (settleLeft > 0) {
        --settleLeft;
        action = "settle";
    } else if (degraded) {
        // Degraded inputs: freeze. Steering on a stale repeat could
        // both mis-move a unit and mis-judge the previous move, so
        // neither prevEs nor isAdjust advances this interval.
        action = "skip";
    } else if (cfg.rollbackEnabled && isAdjust && es > prevEs) {
        // Cancel the last adjustment and ban the victim region from
        // being penalised again for kArqBanSeconds.
        layout.moveResource(lastMove.kind, lastMove.to,
                            lastMove.from);
        ban_until = now_s + kArqBanSeconds;
        banUntil[static_cast<std::size_t>(lastMove.from)] = ban_until;
        isAdjust = false;
        action = "rollback";
        prevEs = es;
    } else {
        {
            // FINDVICTIMREGION + FINDVICTIMRESOURCE: the search
            // for a (victim, beneficiary, resource) move.
            obs::Span span(scope, "arq.search");
            isAdjust = adjustResource(layout, ret, now_s);
        }
        if (isAdjust) {
            settleLeft = kSettleEpochs;
            action = "move";
        }
        prevEs = es;
    }
    lastAction_ = action;

    if (scope.metrics != nullptr)
        scope.count(std::string("arq.") + action);
    if (scope.tracing()) {
        // One decision event per interval: the entropy inputs, the
        // full ReT/Q arrays and what Algorithm 1 did about them.
        traceApps.clear();
        traceRet.clear();
        traceQ.clear();
        for (std::size_t i = 0; i < ret.size(); ++i) {
            if (!ret[i].lc)
                continue;
            traceApps.push_back(static_cast<int>(i));
            traceRet.push_back(ret[i].ret);
            traceQ.push_back(ret[i].q);
        }
        obs::Event ev("arq_decision");
        ev.num("t", now_s)
            .str("action", action)
            .num("e_lc", report.eLc)
            .num("e_be", report.eBe)
            .num("e_s", es)
            .ints("apps", traceApps)
            .nums("ret", traceRet)
            .nums("q", traceQ);
        if (action == std::string("move") ||
            action == std::string("rollback")) {
            ev.str("kind", machine::toString(lastMove.kind))
                .integer("victim", lastMove.from)
                .integer("beneficiary", lastMove.to);
            ev.integer("fsm", fsmIndex[static_cast<std::size_t>(
                                  lastMove.from)]);
        }
        if (ban_until >= 0.0) {
            ev.integer("ban_region", lastMove.from)
                .num("ban_until_s", ban_until);
        }
        scope.emit(ev);
    }
}

} // namespace ahq::sched
