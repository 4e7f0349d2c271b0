/**
 * @file
 * M/M/c queueing formula implementations.
 */

#include "perf/queueing.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace ahq::perf
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Relative stability margin. The exact formulas divide by the
 * wait-tail rate eta = c*mu - lambda; as lambda creeps within a few
 * ULPs of c*mu, eta underflows towards 0 and percentiles blow up to
 * huge-but-finite values (~1e15) that poison every consumer that
 * checks only for infinity. Anything closer to saturation than this
 * relative margin is treated as saturated outright.
 */
constexpr double kSaturationEps = 1e-9;

/** Whether the queue is at (or indistinguishably near) saturation. */
bool
saturated(double c, double lambda, double mu)
{
    return lambda >= c * mu * (1.0 - kSaturationEps);
}

/** Erlang-C with integer servers; 1 when at/beyond saturation. */
double
erlangCInt(int c, double lambda, double mu)
{
    assert(c >= 1);
    const double a = lambda / mu;
    if (saturated(c, lambda, mu))
        return 1.0;
    const double b = erlangB(c, a);
    return c * b / (c - a * (1.0 - b));
}

/**
 * Tail of W + S where W ~ Exp(eta), S ~ Exp(mu), independent.
 * Handles the eta == mu limit (Erlang-2 tail).
 */
double
waitPlusServiceTail(double t, double eta, double mu)
{
    if (std::abs(eta - mu) < 1e-9 * mu) {
        // Gamma(2, mu) tail.
        return (1.0 + mu * t) * std::exp(-mu * t);
    }
    return (eta * std::exp(-mu * t) - mu * std::exp(-eta * t)) /
        (eta - mu);
}

/** P(T > t) for the M/M/c sojourn time with given Erlang-C value. */
double
sojournTail(double t, double c, double lambda, double mu, double pc_wait)
{
    const double eta = c * mu - lambda; // wait-tail rate
    if (eta <= 0.0)
        return 1.0; // saturated: the sojourn time diverges
    const double no_wait = (1.0 - pc_wait) * std::exp(-mu * t);
    const double with_wait = pc_wait * waitPlusServiceTail(t, eta, mu);
    // The closed forms subtract nearly equal exponentials; clamp the
    // rounding residue so callers always see a valid probability.
    return std::clamp(no_wait + with_wait, 0.0, 1.0);
}

} // namespace

double
erlangB(int c, double a)
{
    assert(c >= 0);
    assert(a >= 0.0);
    double b = 1.0;
    for (int k = 1; k <= c; ++k)
        b = a * b / (k + a * b);
    return b;
}

double
erlangC(double c, double lambda, double mu)
{
    assert(c > 0.0 && mu > 0.0 && lambda >= 0.0);
    if (saturated(c, lambda, mu))
        return 1.0;
    const int lo = std::max(1, static_cast<int>(std::floor(c)));
    const int hi = static_cast<int>(std::ceil(c));
    if (lo == hi || c <= 1.0)
        return erlangCInt(std::max(lo, 1), lambda, mu);
    const double frac = c - lo;
    const double c_lo = erlangCInt(lo, lambda, mu);
    const double c_hi = erlangCInt(hi, lambda, mu);
    return (1.0 - frac) * c_lo + frac * c_hi;
}

double
mmcMeanWait(double c, double lambda, double mu)
{
    if (saturated(c, lambda, mu))
        return kInf;
    const double pc_wait = erlangC(c, lambda, mu);
    return pc_wait / (c * mu - lambda);
}

double
mmcMeanSojourn(double c, double lambda, double mu)
{
    const double wq = mmcMeanWait(c, lambda, mu);
    return wq == kInf ? kInf : wq + 1.0 / mu;
}

double
mmcSojournPercentile(double c, double lambda, double mu, double p)
{
    assert(p > 0.0 && p < 1.0);
    assert(c > 0.0 && mu > 0.0 && lambda >= 0.0);
    if (saturated(c, lambda, mu))
        return kInf;

    const double target = 1.0 - p; // tail mass
    const double pc_wait = erlangC(c, lambda, mu);

    // Bracket the percentile: the tail is decreasing in t.
    double lo = 0.0;
    double hi = std::max(10.0 / mu, 10.0 / (c * mu - lambda));
    while (sojournTail(hi, c, lambda, mu, pc_wait) > target) {
        hi *= 2.0;
        if (hi > 1e12 / mu)
            return kInf; // pathological, treat as unstable
    }
    for (int it = 0; it < 80; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (sojournTail(mid, c, lambda, mu, pc_wait) > target)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

double
sojournPercentileApprox(double c, double lambda, double mu,
                        double svc_pmult, double p)
{
    assert(p > 0.0 && p < 1.0);
    assert(c > 0.0 && mu > 0.0 && lambda >= 0.0);
    assert(svc_pmult > 0.0);
    if (saturated(c, lambda, mu))
        return kInf;
    const double pc_wait = erlangC(c, lambda, mu);
    const double tail = 1.0 - p;
    double wait_p = 0.0;
    if (pc_wait > tail) {
        wait_p = std::log(pc_wait / tail) / (c * mu - lambda);
    }
    return svc_pmult / mu + wait_p;
}

double
backlogCap(double lambda, double queue_cap_seconds)
{
    return lambda * queue_cap_seconds + 32.0;
}

double
lcTailSeconds(double servers, double per_server, double cap,
              double lambda, double svc_mult, double stretch,
              double backlog, double p)
{
    const double svc_tail = svc_mult * stretch;
    double t = sojournPercentileApprox(
        servers, std::min(lambda, 0.98 * cap), per_server, svc_tail, p);
    if (!std::isfinite(t))
        t = svc_tail / per_server;
    return t + backlog / std::max(cap, 1e-9);
}

double
mmcSojournTail(double t, double c, double lambda, double mu)
{
    assert(c > 0.0 && mu > 0.0 && lambda >= 0.0);
    if (t <= 0.0)
        return 1.0;
    if (saturated(c, lambda, mu))
        return 1.0;
    return sojournTail(t, c, lambda, mu, erlangC(c, lambda, mu));
}

} // namespace ahq::perf
