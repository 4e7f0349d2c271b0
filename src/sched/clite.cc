/**
 * @file
 * CLITE controller implementation.
 *
 * Hot-path note: adjust() runs every monitoring interval, so the
 * decision loop works entirely on member scratch buffers and the
 * persistent incrementally-updated GP — after the first few
 * intervals a decision performs no heap allocation.
 */

#include "sched/clite.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/span.hh"

namespace ahq::sched
{

using machine::AppId;
using machine::kAllResourceKinds;
using machine::kNumResourceKinds;
using machine::RegionLayout;
using machine::ResourceKind;

namespace
{

/** RNG seed for sampling. */
constexpr std::uint64_t kSeed = 0xc11e;

/**
 * The GP surrogate's hyperparameters (inputs normalised to [0,1]):
 * kernel length scale, signal variance, observation noise variance.
 */
constexpr double kGpLengthScale = 0.35;
constexpr double kGpSignalVar = 1.0;
constexpr double kGpNoiseVar = 0.01;

/**
 * Sliding-window cap on the GP's training samples. The surrogate's
 * Cholesky factor is maintained incrementally, so this bounds the
 * per-decision cost at O(window^2) no matter how long the run
 * accumulates samples (exploit-phase scores stream in every
 * interval).
 */
constexpr std::size_t kGpWindowCap = 10;

/** Total sampling budget before pinning the best config. */
constexpr int kTotalBudget = 24;

/**
 * Intervals to let the system settle after deploying a sample
 * before scoring it (queue backlog from the previous sample would
 * otherwise contaminate the measurement; at high load the drain can
 * take more than one 500 ms interval).
 */
constexpr int kSettleEpochs = 2;

} // namespace

Clite::Clite()
    : rng(kSeed), gp(kGpLengthScale, kGpSignalVar, kGpNoiseVar)
{
    gp.setWindowCap(kGpWindowCap);
}

void
Clite::reset()
{
    rng = stats::Rng(kSeed);
    gp.clear();
    samples = 0;
    currentAlloc.clear();
    lastLoads.clear();
    exploiting = false;
    exploreCount = 0;
    violationStreak = 0;
    settleLeft = 0;
    numGroups = 0;
}

void
Clite::onActuation(bool applied)
{
    if (applied)
        return;
    obsScope().count("clite.actuation_failed");
    // Reconcile: forget the intended deployment so the next
    // interval re-reads the layout actually in force and scores
    // that, not the configuration that never made it to the knobs.
    currentAlloc.clear();
}

machine::RegionLayout
Clite::initialLayout(const machine::MachineConfig &config,
                     const std::vector<AppObservation> &apps)
{
    std::vector<AppId> lc, be;
    splitKinds(apps, lc, be);
    available = config.availableResources();
    numGroups = static_cast<int>(lc.size()) + (be.empty() ? 0 : 1);
    assert(numGroups > 0);

    RegionLayout layout(available);
    for (AppId app : lc) {
        machine::Region r;
        r.name = "clite-iso" + std::to_string(app);
        r.shared = false;
        r.members = {app};
        layout.addRegion(std::move(r));
    }
    if (!be.empty()) {
        machine::Region pool;
        pool.name = "clite-bepool";
        pool.shared = true;
        pool.members = be;
        layout.addRegion(std::move(pool));
    }

    // Start from the even split; its score is the first sample.
    std::vector<int> alloc(
        static_cast<std::size_t>(numGroups) * kNumResourceKinds, 0);
    for (int k = 0; k < kNumResourceKinds; ++k) {
        const int total = available.get(kAllResourceKinds[
            static_cast<std::size_t>(k)]);
        for (int g = 0; g < numGroups; ++g) {
            alloc[static_cast<std::size_t>(g * kNumResourceKinds +
                                           k)] =
                total / numGroups + (g < total % numGroups ? 1 : 0);
        }
    }
    currentAlloc = alloc;
    applyAlloc(layout, alloc);
    assert(layout.valid());
    return layout;
}

double
Clite::objective(const std::vector<AppObservation> &obs) const
{
    // QoS guard band: a sample only counts as meeting QoS when its
    // p95 stays below kGuardBand * threshold, so the pinned optimum
    // keeps headroom against measurement noise.
    constexpr double kGuardBand = 0.90;

    int lc_total = 0, lc_met = 0;
    double be_sum = 0.0;
    int be_total = 0;
    double slack_sum = 0.0;
    double deficit_sum = 0.0;
    for (const auto &o : obs) {
        if (o.latencyCritical) {
            ++lc_total;
            if (o.p95Ms <= kGuardBand * o.thresholdMs)
                ++lc_met;
            slack_sum += std::clamp(o.slack(), 0.0, 1.0);
            // Log-scaled deficit keeps a gradient even when the
            // violation is an order of magnitude over the target.
            if (o.p95Ms > o.thresholdMs) {
                deficit_sum += std::min(
                    4.0, std::log(o.p95Ms / o.thresholdMs));
            }
        } else {
            ++be_total;
            be_sum += o.ipc / std::max(1e-9, o.ipcSolo);
        }
    }
    if (lc_total > 0 && lc_met < lc_total) {
        // Penalised region: strictly below every QoS-feasible score,
        // graded by violation magnitude so that when QoS is
        // infeasible the least-bad configuration still wins.
        return static_cast<double>(lc_met) /
            static_cast<double>(lc_total) - 1.0 -
            0.2 * deficit_sum / static_cast<double>(lc_total);
    }
    if (be_total > 0)
        return be_sum / static_cast<double>(be_total);
    // No BE apps: prefer configurations with more LC slack.
    return lc_total > 0 ?
        1.0 + 0.1 * slack_sum / static_cast<double>(lc_total) : 1.0;
}

void
Clite::randomAllocInto(std::vector<int> &out)
{
    out.assign(
        static_cast<std::size_t>(numGroups) * kNumResourceKinds, 0);
    for (int k = 0; k < kNumResourceKinds; ++k) {
        const ResourceKind kind =
            kAllResourceKinds[static_cast<std::size_t>(k)];
        const int total = available.get(kind);
        const int min_per =
            (kind == ResourceKind::MemBw) ? 0 :
            (total >= numGroups ? 1 : 0);
        int remaining = total - min_per * numGroups;
        assert(remaining >= 0);

        // Random proportional split via uniform weights.
        wBuf.assign(static_cast<std::size_t>(numGroups), 0.0);
        double w_sum = 0.0;
        for (auto &v : wBuf) {
            v = rng.uniform() + 0.05;
            w_sum += v;
        }
        extraBuf.assign(static_cast<std::size_t>(numGroups), 0);
        int assigned = 0;
        for (int g = 0; g < numGroups; ++g) {
            extraBuf[static_cast<std::size_t>(g)] = static_cast<int>(
                std::floor(remaining *
                           wBuf[static_cast<std::size_t>(g)] /
                           w_sum));
            assigned += extraBuf[static_cast<std::size_t>(g)];
        }
        // Distribute the rounding remainder round-robin.
        int leftover = remaining - assigned;
        for (int g = 0; leftover > 0;
             g = (g + 1) % numGroups, --leftover) {
            ++extraBuf[static_cast<std::size_t>(g)];
        }
        for (int g = 0; g < numGroups; ++g) {
            out[static_cast<std::size_t>(g * kNumResourceKinds + k)] =
                min_per + extraBuf[static_cast<std::size_t>(g)];
        }
    }
}

void
Clite::perturbAllocInto(const std::vector<int> &base,
                        std::vector<int> &out)
{
    out = base;
    // Move one unit of a random kind between two random groups,
    // preserving the per-group minimum of 1 core / 1 way.
    for (int tries = 0; tries < 8; ++tries) {
        const int k = static_cast<int>(
            rng.uniformInt(kNumResourceKinds));
        const ResourceKind kind =
            kAllResourceKinds[static_cast<std::size_t>(k)];
        const int from = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(numGroups)));
        const int to = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(numGroups)));
        if (from == to)
            continue;
        const auto fi =
            static_cast<std::size_t>(from * kNumResourceKinds + k);
        const auto ti =
            static_cast<std::size_t>(to * kNumResourceKinds + k);
        const int min_keep = kind == ResourceKind::MemBw ? 0 : 1;
        if (out[fi] > min_keep) {
            --out[fi];
            ++out[ti];
            break;
        }
    }
}

void
Clite::rebalanceAllocInto(const std::vector<int> &base,
                          const std::vector<AppObservation> &obs,
                          std::vector<int> &out)
{
    // Group order mirrors initialLayout: LC apps in observation
    // order, then the BE pool.
    violatedBuf.clear();
    donorBuf.clear();
    int g = 0;
    bool has_be = false;
    for (const auto &o : obs) {
        if (!o.latencyCritical) {
            has_be = true;
            continue;
        }
        if (o.p95Ms > o.thresholdMs)
            violatedBuf.push_back(g);
        else if (o.slack() > 0.2)
            donorBuf.push_back(g);
        ++g;
    }
    if (has_be)
        donorBuf.push_back(numGroups - 1); // the BE pool donates too
    if (violatedBuf.empty() || donorBuf.empty()) {
        perturbAllocInto(base, out);
        return;
    }
    out = base;

    // Shift a few units of random kinds towards the violated groups.
    const int moves = 1 + static_cast<int>(rng.uniformInt(3));
    for (int m = 0; m < moves; ++m) {
        const int to =
            violatedBuf[rng.uniformInt(violatedBuf.size())];
        const int from = donorBuf[rng.uniformInt(donorBuf.size())];
        const int k = static_cast<int>(
            rng.uniformInt(kNumResourceKinds));
        const ResourceKind kind =
            kAllResourceKinds[static_cast<std::size_t>(k)];
        const auto fi =
            static_cast<std::size_t>(from * kNumResourceKinds + k);
        const auto ti =
            static_cast<std::size_t>(to * kNumResourceKinds + k);
        const int min_keep = kind == ResourceKind::MemBw ? 0 : 1;
        if (out[fi] > min_keep) {
            --out[fi];
            ++out[ti];
        }
    }
}

void
Clite::normaliseInto(const std::vector<int> &alloc,
                     std::vector<double> &x) const
{
    x.resize(alloc.size());
    for (int g = 0; g < numGroups; ++g) {
        for (int k = 0; k < kNumResourceKinds; ++k) {
            const int total = available.get(kAllResourceKinds[
                static_cast<std::size_t>(k)]);
            const auto i =
                static_cast<std::size_t>(g * kNumResourceKinds + k);
            x[i] = total > 0 ?
                static_cast<double>(alloc[i]) / total : 0.0;
        }
    }
}

void
Clite::applyAlloc(machine::RegionLayout &layout,
                  const std::vector<int> &alloc)
{
    const int groups = layout.numRegions();
    assert(static_cast<int>(alloc.size()) ==
           groups * kNumResourceKinds);
    for (int g = 0; g < groups; ++g) {
        machine::Region &r = layout.region(g);
        for (int k = 0; k < kNumResourceKinds; ++k) {
            r.res.set(kAllResourceKinds[static_cast<std::size_t>(k)],
                      alloc[static_cast<std::size_t>(
                          g * kNumResourceKinds + k)]);
        }
    }
    assert(layout.valid());
}

void
Clite::readAllocInto(const machine::RegionLayout &layout,
                     std::vector<int> &alloc)
{
    alloc.clear();
    for (int g = 0; g < layout.numRegions(); ++g) {
        for (int k = 0; k < kNumResourceKinds; ++k) {
            alloc.push_back(layout.region(g).res.get(
                kAllResourceKinds[static_cast<std::size_t>(k)]));
        }
    }
}

void
Clite::adjust(machine::RegionLayout &layout,
              const std::vector<AppObservation> &obs, double)
{
    if (currentAlloc.empty())
        readAllocInto(layout, currentAlloc);

    // Degraded inputs: scoring a stale measurement repeat would
    // poison the surrogate with a wrong (x, y) pair (and stale
    // loads would confuse shift detection), so skip the interval.
    for (const auto &o : obs) {
        if (!o.sampleValid) {
            obsScope().count("clite.skip_degraded");
            return;
        }
    }

    // Detect load shifts: the pinned optimum is stale, re-explore.
    constexpr double kLoadShiftThreshold = 0.05;
    loadsBuf.clear();
    for (const auto &o : obs) {
        if (o.latencyCritical)
            loadsBuf.push_back(o.loadFraction);
    }
    if (!lastLoads.empty() && loadsBuf.size() == lastLoads.size()) {
        for (std::size_t i = 0; i < loadsBuf.size(); ++i) {
            if (std::abs(loadsBuf[i] - lastLoads[i]) >
                kLoadShiftThreshold) {
                gp.clear();
                samples = 0;
                exploiting = false;
                exploreCount = 0;
                violationStreak = 0;
                settleLeft = 0;
                obsScope().count("clite.load_shift");
                if (obsScope().tracing()) {
                    obs::Event ev("clite_decision");
                    ev.str("action", "re_explore");
                    obsScope().emit(ev);
                }
                break;
            }
        }
    }
    std::swap(lastLoads, loadsBuf);

    // Let the system settle on the deployed sample before scoring:
    // the previous sample's queue backlog would otherwise make a
    // feasible configuration measure as a violation.
    if (!exploiting && settleLeft > 0) {
        --settleLeft;
        obsScope().count("clite.settle");
        return;
    }

    // Score the configuration that was live during this interval.
    // The surrogate ingests it immediately (O(window^2) row-append),
    // so no decision ever pays a refit.
    obs::Span sample_span(obsScope(), "clite.sample");
    const double score = objective(obs);
    normaliseInto(currentAlloc, xBuf);
    gp.addSample(xBuf, score);
    if (samples == 0 || bestY < score) {
        bestY = score;
        bestAlloc = currentAlloc;
    }
    ++samples;

    if (exploiting) {
        // A pinned optimum that keeps violating QoS even though a
        // feasible configuration was seen is stale: resume the
        // search. When nothing feasible was ever found, churning
        // through more live samples only hurts, so stay pinned on
        // the least-bad configuration. kViolationPatience violated
        // intervals in a row unpin it.
        constexpr int kViolationPatience = 4;
        violationStreak = score < 0.0 ? violationStreak + 1 : 0;
        if (violationStreak >= kViolationPatience && bestY >= 0.0) {
            exploiting = false;
            exploreCount = kTotalBudget / 2;
            violationStreak = 0;
        }
    } else {
        ++exploreCount;
        if (exploreCount >= kTotalBudget)
            exploiting = true;
    }

    // Random (quasi-LHS) samples before the GP drives proposals.
    constexpr int kInitialSamples = 6;
    if (exploiting) {
        nextBuf = bestAlloc;
    } else if (score < 0.0 && rng.bernoulli(0.6)) {
        // The live config violated QoS: usually hill-climb from the
        // best configuration seen so far instead of waiting for the
        // surrogate to learn the constraint boundary, but keep some
        // probability mass on the global search for diversity.
        rebalanceAllocInto(bestAlloc, obs, nextBuf);
    } else if (exploreCount < kInitialSamples) {
        randomAllocInto(nextBuf);
    } else {
        obs::Span span(obsScope(), "clite.gp");
        assert(gp.fitted());
        // Candidate pool for the EI maximisation, sized so a GP
        // decision (pool x O(window^2) posterior evaluations) fits
        // the monitoring interval's compute budget; the pool mixes
        // local perturbations, demand-directed rebalances and global
        // draws, so coverage degrades gracefully as it shrinks.
        constexpr int kCandidatePool = 64;
        double best_ei = -1.0;
        bool found = false;
        for (int cand = 0; cand < kCandidatePool; ++cand) {
            // Mix global random draws with local refinements of the
            // incumbent and demand-directed rebalances, CLITE-style.
            switch (cand % 4) {
              case 0:
                perturbAllocInto(bestAlloc, candBuf);
                break;
              case 1:
                rebalanceAllocInto(bestAlloc, obs, candBuf);
                break;
              default:
                randomAllocInto(candBuf);
                break;
            }
            normaliseInto(candBuf, xBuf);
            const double ei = gp.expectedImprovement(xBuf, bestY);
            if (ei > best_ei) {
                best_ei = ei;
                std::swap(nextBuf, candBuf);
                found = true;
            }
        }
        if (!found)
            randomAllocInto(nextBuf);
    }

    currentAlloc = nextBuf;
    applyAlloc(layout, nextBuf);
    if (!exploiting)
        settleLeft = kSettleEpochs;

    const obs::Scope &scope = obsScope();
    scope.count(exploiting ? "clite.exploit" : "clite.sample");
    if (scope.tracing()) {
        obs::Event ev("clite_decision");
        ev.str("action", exploiting ? "exploit" : "sample")
            .num("score", score)
            .num("best", bestY)
            .integer("samples", samples);
        scope.emit(ev);
    }
}

} // namespace ahq::sched
