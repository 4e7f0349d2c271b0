/**
 * @file
 * Application profile and calibration implementations.
 */

#include "apps/profile.hh"

#include <cassert>
#include <cmath>
#include <limits>

#include "perf/queueing.hh"

namespace ahq::apps
{

namespace
{

/**
 * Waiting-time component (ms) of the solo p95 at the given arrival
 * rate for a candidate base service time, with c = threads servers.
 */
double
soloWait95Ms(double service_ms, int threads, double lambda)
{
    const double mu = 1000.0 / service_ms; // requests/s per server
    const double c = static_cast<double>(threads);
    if (lambda >= c * mu)
        return std::numeric_limits<double>::infinity();
    const double pc_wait = perf::erlangC(c, lambda, mu);
    if (pc_wait <= 0.05)
        return 0.0;
    return 1000.0 * std::log(pc_wait / 0.05) / (c * mu - lambda);
}

} // namespace

double
AppProfile::arrivalRate(double load_fraction) const
{
    assert(load_fraction >= 0.0);
    return load_fraction * maxLoadQps;
}

double
AppProfile::svcMultAt(double p) const
{
    assert(p > 0.0 && p < 1.0);
    // Exponential-tail scaling: exceedance multipliers grow with
    // -log(1-p); anchored at the calibrated p95 value.
    return svcP95Mult * std::log(1.0 - p) / std::log(0.05);
}

double
AppProfile::soloTailPercentileMs(double load_fraction,
                                 double p) const
{
    const double lambda = arrivalRate(load_fraction);
    const double mu = 1000.0 / serviceTimeMs;
    const double t = perf::sojournPercentileApprox(
        static_cast<double>(threads), lambda, mu, svcMultAt(p), p);
    if (t == std::numeric_limits<double>::infinity())
        return t;
    return baseLatencyMs + 1000.0 * t;
}

perf::AppDemand
AppProfile::toDemand(double load_fraction) const
{
    perf::AppDemand d;
    d.latencyCritical = latencyCritical;
    d.arrivalRate = latencyCritical ? arrivalRate(load_fraction) : 0.0;
    d.serviceTimeMs = serviceTimeMs;
    d.ipcSolo = ipcSolo;
    d.threads = threads;
    d.cpi = cpi;
    return d;
}

void
calibrateLcProfile(AppProfile &profile,
                   const CalibrationTargets &targets)
{
    assert(profile.threads >= 1);
    assert(targets.maxLoadQps > 0.0);
    assert(targets.tailThresholdMs > targets.idealTailAt20Ms);

    profile.latencyCritical = true;
    profile.maxLoadQps = targets.maxLoadQps;
    profile.tailThresholdMs = targets.tailThresholdMs;
    profile.baseLatencyMs =
        targets.baseLatencyFrac * targets.idealTailAt20Ms;

    // The knee condition: the waiting component alone must account
    // for the p95 growth between 20% and 100% load.
    const double wait_gap =
        targets.tailThresholdMs - targets.idealTailAt20Ms;
    const double c = static_cast<double>(profile.threads);
    const double l_max = targets.maxLoadQps;

    // Bisection over the base service time. The upper bound is just
    // under the stability limit c / L; the waiting gap is monotone
    // increasing in the service time.
    double lo = 1e-6;
    double hi = 0.999 * 1000.0 * c / l_max;
    for (int it = 0; it < 100; ++it) {
        const double mid = 0.5 * (lo + hi);
        const double gap = soloWait95Ms(mid, profile.threads, l_max) -
            soloWait95Ms(mid, profile.threads, 0.2 * l_max);
        if (gap < wait_gap)
            lo = mid;
        else
            hi = mid;
    }
    profile.serviceTimeMs = 0.5 * (lo + hi);

    // The service-tail multiplier picks up the remaining ideal tail.
    const double wait20 =
        soloWait95Ms(profile.serviceTimeMs, profile.threads,
                     0.2 * l_max);
    const double svc_tail = targets.idealTailAt20Ms -
        profile.baseLatencyMs - wait20;
    profile.svcP95Mult =
        std::max(0.02, svc_tail / profile.serviceTimeMs);
}

} // namespace ahq::apps
