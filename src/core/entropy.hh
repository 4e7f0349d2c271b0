/**
 * @file
 * System entropy (E_S): the paper's interference metric.
 *
 * Implements Section II's analytical expressions:
 *
 *   A_i   = 1 - TL_i0 / M_i                     (Eq. 1, tolerance)
 *   R_i   = 1 - TL_i0 / TL_i1                   (Eq. 2, interference)
 *   ReT_i = A_i > R_i ? 1 - TL_i1 / M_i : 0     (Eq. 3)
 *   Q_i   = R_i > A_i ? 1 - M_i / TL_i1 : 0     (Eq. 4)
 *   E_LC  = (1/N) * sum_i Q_i                   (Eq. 5)
 *   E_BE  = 1 - M / sum_i (IPC_solo/IPC_real)   (Eq. 6)
 *   E_S   = RI * E_LC + (1 - RI) * E_BE         (Eq. 7)
 *
 * All quantities are dimensionless and lie in [0, 1] (required
 * property 1 in Section II-A); resource-amount and scheduling
 * sensitivity (properties 2 and 3) are validated by the test suite
 * and the Table II / Fig. 2 benches.
 */

#ifndef AHQ_CORE_ENTROPY_HH
#define AHQ_CORE_ENTROPY_HH

#include <vector>

namespace ahq::core
{

/** The paper's default relative importance of LC over BE (§II-B). */
inline constexpr double kDefaultRelativeImportance = 0.8;

/** The paper's assumed relative elasticity of the QoS target M_i. */
inline constexpr double kThresholdElasticity = 0.05;

/** One LC application's observed latencies for an interval. */
struct LcObservation
{
    /** TL_i0: ideal p95 tail latency at the current load, ms. */
    double idealTailMs = 0.0;

    /** TL_i1: observed p95 tail latency under colocation, ms. */
    double actualTailMs = 0.0;

    /** M_i: maximum tolerable p95 tail latency, ms. */
    double thresholdMs = 1.0;
};

/** One BE application's observed throughput for an interval. */
struct BeObservation
{
    /** IPC when running alone under ideal conditions. */
    double ipcSolo = 1.0;

    /** IPC under colocation. */
    double ipcReal = 1.0;
};

/** Per-LC-app derived quantities (Eqs. 1-4). */
struct LcBreakdown
{
    double tolerance = 0.0;          // A_i
    double interference = 0.0;       // R_i
    double remainingTolerance = 0.0; // ReT_i
    double intolerable = 0.0;        // Q_i
};

/**
 * Compute A_i, R_i, ReT_i and Q_i for one LC application.
 *
 * Inputs are clamped to their physical ranges: observed latencies
 * below the ideal (measurement noise) yield zero interference, and an
 * unbounded observed latency yields Q_i -> 1.
 */
LcBreakdown lcBreakdown(const LcObservation &obs);

/** E_LC over the given LC applications (Eq. 5); 0 when empty. */
double lcEntropy(const std::vector<LcObservation> &lc);

/** E_BE over the given BE applications (Eq. 6); 0 when empty. */
double beEntropy(const std::vector<BeObservation> &be);

/**
 * E_S = RI * E_LC + (1-RI) * E_BE (Eq. 7).
 *
 * When only one application class is present the other term is
 * dropped entirely (Scenario 1/2 of §II-B: RI degenerates to 1 or 0),
 * which the has_lc / has_be flags express.
 */
double systemEntropy(double e_lc, double e_be, double ri, bool has_lc,
                     bool has_be);

/**
 * The QoS-violation test: an observed tail latency misses its target
 * M_i once it exceeds M_i relaxed by the elasticity (§II-C). Every
 * violation counter, alert and yield computation goes through it.
 */
inline bool
violatesQos(double tail_ms, double threshold_ms,
            double elasticity = kThresholdElasticity)
{
    return tail_ms > threshold_ms * (1.0 + elasticity);
}

/**
 * Yield: the fraction of LC applications whose observed tail latency
 * satisfies its (elasticity-relaxed) QoS target (§I, §VI-A).
 *
 * @param lc Observations.
 * @param elasticity Relative slack on M_i (the paper uses 5%).
 */
double yield(const std::vector<LcObservation> &lc,
             double elasticity = kThresholdElasticity);

/** Complete entropy accounting for one monitoring interval. */
struct EntropyReport
{
    std::vector<LcBreakdown> lcDetail;
    double eLc = 0.0;
    double eBe = 0.0;
    double eS = 0.0;
    double yieldValue = 1.0;

    /** Mean tolerance A over the LC apps ("System" row, Table II). */
    double meanTolerance = 0.0;

    /** Mean interference R over the LC apps. */
    double meanInterference = 0.0;

    /** Mean remaining tolerance ReT over the LC apps. */
    double meanRemainingTolerance = 0.0;
};

/**
 * Compute the full entropy report for one interval.
 *
 * @param lc LC observations (may be empty).
 * @param be BE observations (may be empty).
 * @param ri Relative importance of LC over BE in [0, 1].
 */
EntropyReport computeEntropy(const std::vector<LcObservation> &lc,
                             const std::vector<BeObservation> &be,
                             double ri = kDefaultRelativeImportance);

/**
 * As computeEntropy(), but recycling @p rep (all fields are reset;
 * the lcDetail vector keeps its capacity). Per-interval controllers
 * pass a persistent report so the monitor phase does not allocate.
 */
void computeEntropyInto(const std::vector<LcObservation> &lc,
                        const std::vector<BeObservation> &be,
                        double ri, EntropyReport &rep);

} // namespace ahq::core

#endif // AHQ_CORE_ENTROPY_HH
