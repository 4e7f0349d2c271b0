/**
 * @file
 * Bootstrap confidence intervals for simulation aggregates.
 *
 * The bench harness reports means over seeds/epochs; a reproduction
 * repo should say how stable those means are. The percentile
 * bootstrap is distribution-free and plays well with the seeded Rng.
 */

#ifndef AHQ_STATS_BOOTSTRAP_HH
#define AHQ_STATS_BOOTSTRAP_HH

#include <functional>
#include <vector>

#include "stats/rng.hh"

namespace ahq::stats
{

/** A two-sided confidence interval around a point estimate. */
struct ConfidenceInterval
{
    double estimate = 0.0;
    double lo = 0.0;
    double hi = 0.0;

    /** Whether the interval contains the value. */
    bool
    contains(double v) const
    {
        return v >= lo && v <= hi;
    }
};

/**
 * Percentile-bootstrap confidence interval for an arbitrary
 * statistic of a sample.
 *
 * @param samples The observed sample (size >= 1).
 * @param statistic Maps a resample to its statistic.
 * @param rng Seeded random source.
 * @param confidence Coverage, e.g. 0.95.
 * @param resamples Bootstrap iterations (default 1000).
 */
ConfidenceInterval
bootstrapCi(const std::vector<double> &samples,
            const std::function<double(
                const std::vector<double> &)> &statistic,
            Rng &rng, double confidence = 0.95,
            int resamples = 1000);

/** Convenience: bootstrap CI of the mean. */
ConfidenceInterval bootstrapMeanCi(const std::vector<double> &samples,
                                   Rng &rng,
                                   double confidence = 0.95,
                                   int resamples = 1000);

} // namespace ahq::stats

#endif // AHQ_STATS_BOOTSTRAP_HH
