/**
 * @file
 * Application profiles: everything the node simulator needs to know
 * about one colocated application, plus the calibration solver that
 * fits the queueing parameters to the paper's published constants
 * (Table II ideal tail latencies, Table IV thresholds and max loads).
 */

#ifndef AHQ_APPS_PROFILE_HH
#define AHQ_APPS_PROFILE_HH

#include <string>

#include "perf/contention.hh"
#include "perf/cpi.hh"

namespace ahq::apps
{

/**
 * Static description of one application.
 *
 * LC applications are open-loop request servers characterised by a
 * base per-request service demand (serviceTimeMs), a service-tail
 * multiplier (svcP95Mult, the ratio of the p95 service time to the
 * mean), a fixed software/network latency floor (baseLatencyMs), a
 * QoS threshold M_i (tailThresholdMs) and a maximum sustainable load
 * (maxLoadQps). BE applications are characterised by their solo IPC.
 * Both carry a CPI/cache model for the contention substrate.
 */
struct AppProfile
{
    std::string name;
    bool latencyCritical = true;
    int threads = 4;

    // ---- LC parameters -------------------------------------------
    /** Base service demand per request, ms of one core at speed 1. */
    double serviceTimeMs = 1.0;

    /** p95 of the service time as a multiple of its mean. */
    double svcP95Mult = 3.0;

    /** Load-independent latency floor, ms. */
    double baseLatencyMs = 0.0;

    /** QoS target M_i: maximum tolerable p95 tail latency, ms. */
    double tailThresholdMs = 10.0;

    /** Maximum sustainable load, requests/second (Table IV). */
    double maxLoadQps = 1000.0;

    // ---- BE parameters -------------------------------------------
    /** IPC when running solo under ideal conditions. */
    double ipcSolo = 1.0;

    // ---- microarchitectural behaviour ----------------------------
    perf::CpiModel cpi;

    AppProfile()
        : cpi(perf::MissRateCurve(10.0, 1.0, 4.0), perf::CpiTraits{})
    {}

    /** Arrival rate at the given load fraction of max load. */
    double arrivalRate(double load_fraction) const;

    /**
     * Solo tail latency at percentile p and the given load fraction:
     * the app on the full machine at speed 1 (this is TL_i0 at that
     * load, which the paper obtains by temporarily isolating ample
     * resources). The paper uses the 95th "without losing
     * generality" (§V); other percentiles scale the calibrated
     * service tail's exceedance with log(1-p), exact for
     * exponential-tailed services.
     *
     * @param load_fraction Load as a fraction of max load.
     * @param p Percentile in (0, 1), e.g. 0.99.
     */
    double soloTailPercentileMs(double load_fraction,
                                double p) const;

    /** The calibrated service-tail multiplier at percentile p. */
    double svcMultAt(double p) const;

    /** Contention-model demand for this app at the given load. */
    perf::AppDemand toDemand(double load_fraction) const;
};

/** Published constants a profile is calibrated against. */
struct CalibrationTargets
{
    /** Max sustainable load (Table IV), requests/s. */
    double maxLoadQps;

    /** Tail latency threshold M_i (Table IV), ms. */
    double tailThresholdMs;

    /** Ideal p95 at 20% load (Table II where published), ms. */
    double idealTailAt20Ms;

    /** Fraction of the ideal tail attributed to the latency floor. */
    double baseLatencyFrac = 0.15;
};

/**
 * Fit (serviceTimeMs, svcP95Mult, baseLatencyMs) so that the solo
 * model reproduces the published constants:
 *
 *  - solo p95 at 100% load equals the tail threshold (the paper
 *    defines max load as the knee where p95 reaches the threshold);
 *  - solo p95 at 20% load equals the published ideal tail latency.
 *
 * The waiting-time term depends only on serviceTimeMs, so it is
 * solved first by bisection, then the service-tail multiplier picks
 * up the remainder. Modifies only the queueing fields of profile.
 *
 * @param profile In/out; threads must be set beforehand.
 * @param targets The published constants.
 */
void calibrateLcProfile(AppProfile &profile,
                        const CalibrationTargets &targets);

} // namespace ahq::apps

#endif // AHQ_APPS_PROFILE_HH
