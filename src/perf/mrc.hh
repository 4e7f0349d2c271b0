/**
 * @file
 * Miss-rate curves (MRCs) over LLC way allocations.
 *
 * The contention model uses a hyperbolic MRC parameterisation: misses
 * per kilo-instruction decay from a 1-way maximum towards a full-cache
 * minimum with a half-saturation constant expressed in ways. This is
 * the standard first-order shape of set-associative cache MRCs and is
 * what way-partitioning studies (e.g. KPart, the paper's ref [14])
 * observe for most workloads.
 */

#ifndef AHQ_PERF_MRC_HH
#define AHQ_PERF_MRC_HH

namespace ahq::perf
{

/**
 * Hyperbolic miss-rate curve: mpki(w) decreasing and convex in the
 * number of effective ways w.
 */
class MissRateCurve
{
  public:
    /**
     * @param mpki_max Misses per kilo-instruction with ~0 ways.
     * @param mpki_min Misses per kilo-instruction with unlimited ways.
     * @param ways_half Ways at which half of the reducible misses are
     *                  eliminated; larger means more cache-hungry.
     */
    MissRateCurve(double mpki_max, double mpki_min, double ways_half);

    /**
     * Misses per kilo-instruction with the given (possibly
     * fractional) effective ways. Clamped at w = 0. Defined inline:
     * the contention fixed point evaluates this in its innermost
     * loops, and the call must fold into them.
     */
    double
    mpki(double ways) const
    {
        const double w = ways > 0.0 ? ways : 0.0;
        return mpkiMin_ +
            (mpkiMax_ - mpkiMin_) * waysHalf_ / (w + waysHalf_);
    }

    /**
     * Access intensity used for way-stealing in shared regions, from
     * mpki(ways) at the app's allocation: the marginal cache appetite
     * of the application, proportional to the reducible miss mass it
     * still has there.
     */
    double
    intensityWithMpki(double mpki_at_ways) const
    {
        // Reducible miss mass remaining at this allocation: lines a
        // workload would actually re-reference if kept. Streaming
        // apps with flat MRCs touch many lines but evict their own
        // data and retain almost no occupancy under LRU, so only the
        // reducible part competes, with a floor for residual churn.
        const double reducible = mpki_at_ways - mpkiMin_;
        return reducible > 0.05 ? reducible : 0.05;
    }

    double mpkiMax() const { return mpkiMax_; }
    double mpkiMin() const { return mpkiMin_; }
    double waysHalf() const { return waysHalf_; }

  private:
    double mpkiMax_;
    double mpkiMin_;
    double waysHalf_;
};

} // namespace ahq::perf

#endif // AHQ_PERF_MRC_HH
