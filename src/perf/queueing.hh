/**
 * @file
 * M/M/c queueing formulas used to produce per-epoch tail latencies.
 *
 * Each LC application is modelled as an M/M/c queue whose servers are
 * the (possibly fractional) core-equivalents the contention model
 * grants it. The flat-then-exponential latency/load curves of the
 * paper's Fig. 7 are exactly the behaviour of this family. Fractional
 * server counts are handled by linear interpolation between the two
 * neighbouring integer-server systems, which keeps the formulas smooth
 * for the schedulers' feedback loops.
 */

#ifndef AHQ_PERF_QUEUEING_HH
#define AHQ_PERF_QUEUEING_HH

namespace ahq::perf
{

/**
 * Erlang-B blocking probability for offered load a on c servers
 * (integer c), computed with the numerically stable recurrence.
 */
double erlangB(int c, double a);

/**
 * Erlang-C probability that an arriving request waits, for an M/M/c
 * queue with arrival rate lambda and per-server rate mu.
 *
 * Fractional c is linearly interpolated. Returns 1 when the system is
 * at or beyond saturation (lambda >= c*mu).
 */
double erlangC(double c, double lambda, double mu);

/** Mean waiting time in queue of the M/M/c (infinite when unstable). */
double mmcMeanWait(double c, double lambda, double mu);

/** Mean sojourn (response) time of the M/M/c. */
double mmcMeanSojourn(double c, double lambda, double mu);

/**
 * Percentile of the sojourn (response) time of an M/M/c queue.
 *
 * Uses the exact tail P(T > t) = (1-C) P(S > t) + C P(W + S > t) with
 * W ~ Exp(c*mu - lambda), S ~ Exp(mu), solved for t by bisection.
 *
 * @param c Number of servers (fractional allowed, > 0).
 * @param lambda Arrival rate (>= 0).
 * @param mu Per-server service rate (> 0).
 * @param p Percentile in (0, 1), e.g. 0.95.
 * @return The percentile, or +infinity when the queue is unstable.
 */
double mmcSojournPercentile(double c, double lambda, double mu, double p);

/**
 * Survival function P(T > t) of the M/M/c sojourn time. Always a
 * valid probability: clamped to [0, 1], 1 for t <= 0, and 1 when
 * the queue is at (or within the numerical stability margin of)
 * saturation, where the sojourn time diverges.
 *
 * @param t Time (same unit as 1/mu).
 * @param c Servers (fractional allowed, > 0).
 * @param lambda Arrival rate (>= 0).
 * @param mu Per-server service rate (> 0).
 */
double mmcSojournTail(double t, double c, double lambda, double mu);

/**
 * Approximate sojourn percentile for an M/G/c queue whose service
 * distribution has percentile-p value svc_pmult / mu:
 *
 *     T_p ~= svc_pmult / mu + max(0, ln(C / (1-p)) / (c*mu - lambda))
 *
 * The second term is the exact percentile of the M/M/c waiting time
 * (exponential tail of rate c*mu - lambda with mass C at the origin);
 * the first replaces the exponential service tail with the workload's
 * calibrated one. Tailbench-style services are less variable than
 * exponential, which svc_pmult < 3 expresses. Returns +infinity when
 * unstable.
 *
 * @param c Servers (fractional allowed, > 0).
 * @param lambda Arrival rate (>= 0).
 * @param mu Per-server service rate (> 0; 1/mu is the mean service).
 * @param svc_pmult Service-time percentile multiplier (x mean).
 * @param p Percentile in (0, 1).
 */
double sojournPercentileApprox(double c, double lambda, double mu,
                               double svc_pmult, double p = 0.95);

/**
 * Default generator-side queue cap, seconds of offered arrivals (the
 * epoch simulator's SimulationConfig::queueCapSeconds; the oracle's
 * steady state holds a saturated app's backlog at this cap).
 */
inline constexpr double kDefaultQueueCapSeconds = 0.10;

/**
 * Most requests an LC app's load generator keeps outstanding:
 * lambda * queue_cap_seconds + 32. Tailbench-style generators bound
 * outstanding work, so an overloaded tail saturates instead of
 * diverging.
 */
double backlogCap(double lambda, double queue_cap_seconds);

/**
 * The LC tail rule, in seconds: what the epoch simulator measures
 * and the oracle minimises. The sojourn percentile
 * (sojournPercentileApprox) at the stabilised rate
 * min(lambda, 0.98 cap) with the service tail svc_mult x stretch —
 * or one such service tail when that percentile is not finite —
 * plus the drain time of the backlog over the capacity.
 *
 * @param servers Core-equivalents (> 0).
 * @param per_server Per-server service rate, requests/s (> 0).
 * @param cap Total service capacity, requests/s.
 * @param lambda Offered arrival rate, requests/s (>= 0).
 * @param svc_mult Service-time percentile multiplier at p.
 * @param stretch Processor-sharing service stretch (>= 1).
 * @param backlog Requests queued ahead of the arrivals (>= 0).
 * @param p Percentile in (0, 1).
 */
double lcTailSeconds(double servers, double per_server, double cap,
                     double lambda, double svc_mult, double stretch,
                     double backlog, double p);

} // namespace ahq::perf

#endif // AHQ_PERF_QUEUEING_HH
