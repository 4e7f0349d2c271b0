/**
 * @file
 * Exact batch percentiles of a sample set: the bootstrap's interval
 * ends and the request-level DES's measured tails (validation_model).
 * The epoch simulator's per-interval p95 is analytic, not sampled
 * (perf::lcTailSeconds).
 */

#ifndef AHQ_STATS_PERCENTILE_HH
#define AHQ_STATS_PERCENTILE_HH

#include <vector>

namespace ahq::stats
{

/**
 * Exact percentile of a sample set by linear interpolation between
 * closest ranks (the "linear" / type-7 rule used by numpy).
 *
 * Edge cases are pinned down by the test suite: an empty sample set
 * returns 0.0 by definition (no completed requests reads as zero
 * latency rather than an error); `p == 100` returns the maximum
 * without reading past the last rank; single-element inputs return
 * that element for every p.
 *
 * @param samples The sample values; the vector is copied and sorted.
 * @param p Percentile in [0, 100].
 * @return The interpolated percentile, or 0 when samples is empty.
 * @throws std::invalid_argument when p is NaN or outside [0, 100],
 *         or when any sample is NaN (NaN would poison the sort's
 *         strict weak ordering and silently corrupt the result).
 */
double exactPercentile(std::vector<double> samples, double p);

} // namespace ahq::stats

#endif // AHQ_STATS_PERCENTILE_HH
