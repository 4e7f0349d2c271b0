/**
 * @file
 * System entropy implementation.
 */

#include "core/entropy.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ahq::core
{

namespace
{

double
clamp01(double v)
{
    return std::clamp(v, 0.0, 1.0);
}

} // namespace

LcBreakdown
lcBreakdown(const LcObservation &obs)
{
    assert(obs.thresholdMs > 0.0);
    assert(obs.idealTailMs >= 0.0);
    assert(obs.actualTailMs >= 0.0);

    LcBreakdown b;

    // Eq. (1): A_i = 1 - TL_i0 / M_i. The paper assumes TL_i0 < M_i;
    // clamp for robustness when callers feed an overloaded ideal.
    b.tolerance = clamp01(1.0 - obs.idealTailMs / obs.thresholdMs);

    // Eq. (2): R_i = 1 - TL_i0 / TL_i1; zero when the observation is
    // at or below the ideal (no interference, or noise).
    if (obs.actualTailMs > obs.idealTailMs && obs.actualTailMs > 0.0) {
        if (std::isinf(obs.actualTailMs))
            b.interference = 1.0;
        else
            b.interference =
                clamp01(1.0 - obs.idealTailMs / obs.actualTailMs);
    } else {
        b.interference = 0.0;
    }

    // Eq. (3): remaining tolerance.
    if (b.tolerance > b.interference) {
        b.remainingTolerance =
            clamp01(1.0 - obs.actualTailMs / obs.thresholdMs);
    } else {
        b.remainingTolerance = 0.0;
    }

    // Eq. (4): intolerable interference.
    if (b.interference > b.tolerance) {
        if (std::isinf(obs.actualTailMs))
            b.intolerable = 1.0;
        else
            b.intolerable =
                clamp01(1.0 - obs.thresholdMs / obs.actualTailMs);
    } else {
        b.intolerable = 0.0;
    }

    return b;
}

double
lcEntropy(const std::vector<LcObservation> &lc)
{
    if (lc.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &obs : lc)
        sum += lcBreakdown(obs).intolerable;
    return sum / static_cast<double>(lc.size());
}

double
beEntropy(const std::vector<BeObservation> &be)
{
    if (be.empty())
        return 0.0;
    double slowdown_sum = 0.0;
    for (const auto &obs : be) {
        assert(obs.ipcSolo > 0.0);
        // Colocation cannot speed an app up in this model; clamp the
        // per-app slowdown at 1 so noise cannot produce negative
        // entropy contributions.
        const double real = std::max(obs.ipcReal, 1e-9);
        slowdown_sum += std::max(1.0, obs.ipcSolo / real);
    }
    const double m = static_cast<double>(be.size());
    return clamp01(1.0 - m / slowdown_sum);
}

double
systemEntropy(double e_lc, double e_be, double ri, bool has_lc,
              bool has_be)
{
    assert(ri >= 0.0 && ri <= 1.0);
    if (has_lc && !has_be)
        return e_lc; // Scenario 1: RI degenerates to 1.
    if (!has_lc && has_be)
        return e_be; // Scenario 2: RI degenerates to 0.
    if (!has_lc && !has_be)
        return 0.0;
    return ri * e_lc + (1.0 - ri) * e_be; // Eq. (7)
}

double
yield(const std::vector<LcObservation> &lc, double elasticity)
{
    if (lc.empty())
        return 1.0;
    int satisfied = 0;
    for (const auto &obs : lc)
        satisfied +=
            !violatesQos(obs.actualTailMs, obs.thresholdMs, elasticity);
    return static_cast<double>(satisfied) /
        static_cast<double>(lc.size());
}

EntropyReport
computeEntropy(const std::vector<LcObservation> &lc,
               const std::vector<BeObservation> &be, double ri)
{
    EntropyReport rep;
    computeEntropyInto(lc, be, ri, rep);
    return rep;
}

void
computeEntropyInto(const std::vector<LcObservation> &lc,
                   const std::vector<BeObservation> &be, double ri,
                   EntropyReport &rep)
{
    // Reset every scalar while keeping the detail vector's capacity
    // (per-interval controllers pass the same report object so the
    // monitor phase stays allocation-free once warm).
    auto detail = std::move(rep.lcDetail);
    detail.clear();
    rep = EntropyReport{};
    rep.lcDetail = std::move(detail);
    rep.lcDetail.reserve(lc.size());
    for (const auto &obs : lc)
        rep.lcDetail.push_back(lcBreakdown(obs));

    rep.eLc = lcEntropy(lc);
    rep.eBe = beEntropy(be);
    rep.eS = systemEntropy(rep.eLc, rep.eBe, ri, !lc.empty(),
                           !be.empty());
    rep.yieldValue = yield(lc);

    if (!rep.lcDetail.empty()) {
        for (const auto &b : rep.lcDetail) {
            rep.meanTolerance += b.tolerance;
            rep.meanInterference += b.interference;
            rep.meanRemainingTolerance += b.remainingTolerance;
        }
        const double n = static_cast<double>(rep.lcDetail.size());
        rep.meanTolerance /= n;
        rep.meanInterference /= n;
        rep.meanRemainingTolerance /= n;
    }
}

} // namespace ahq::core
