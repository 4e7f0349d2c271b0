/**
 * @file
 * Batch summaries of sample vectors: the arithmetic mean the
 * bootstrap's mean interval resamples.
 */

#ifndef AHQ_STATS_SUMMARY_HH
#define AHQ_STATS_SUMMARY_HH

#include <vector>

namespace ahq::stats
{

/** Arithmetic mean (0 when empty). */
double mean(const std::vector<double> &samples);

} // namespace ahq::stats

#endif // AHQ_STATS_SUMMARY_HH
