/**
 * @file
 * Memory-bandwidth contention model.
 *
 * When the aggregate bandwidth demand of the colocated applications
 * approaches the node's (or an MBA partition's) capacity, memory
 * access latency dilates, inflating every consumer's CPI. The model
 * uses the standard queueing-flavoured dilation
 *
 *     d(rho) = 1 + k * rho^2 / (1 - rho)      (rho capped below 1)
 *
 * which is ~1 at low utilisation and grows sharply near saturation —
 * the behaviour STREAM-style colocations exhibit on real parts.
 */

#ifndef AHQ_PERF_BANDWIDTH_HH
#define AHQ_PERF_BANDWIDTH_HH

#include <algorithm>
#include <cassert>

namespace ahq::perf
{

/** Utilisation is clamped to this before the 1/(1-rho) pole. */
constexpr double kRhoCap = 0.97;

/** Upper bound on dilation to keep the fixed point well-behaved. */
constexpr double kMaxDilation = 8.0;

/** Parameters of the bandwidth dilation curve. */
struct BandwidthTraits
{
    /** Dilation curvature constant. */
    double contentionK = 0.8;
};

/**
 * Memory bandwidth dilation model. Header-only: the contention fixed
 * point calls it for every app in every iteration.
 */
class BandwidthModel
{
  public:
    explicit BandwidthModel(BandwidthTraits traits = {}) : traits_(traits)
    {
        assert(traits.contentionK >= 0.0);
    }

    /**
     * Latency dilation (>= 1) at the given utilisation.
     * @param rho Demand / capacity; values above kRhoCap are clamped.
     */
    double
    dilation(double rho) const
    {
        if (rho <= 0.0)
            return 1.0;
        const double r = std::min(rho, kRhoCap);
        const double d = 1.0 + traits_.contentionK * r * r / (1.0 - r);
        return std::min(d, kMaxDilation);
    }

    /**
     * Throughput scale factor in (0, 1]: when demand exceeds
     * capacity, consumers are collectively throttled to fit.
     */
    double
    throughputScale(double demand, double capacity) const
    {
        assert(capacity > 0.0);
        if (demand <= capacity)
            return 1.0;
        return capacity / demand;
    }

  private:
    BandwidthTraits traits_;
};

} // namespace ahq::perf

#endif // AHQ_PERF_BANDWIDTH_HH
