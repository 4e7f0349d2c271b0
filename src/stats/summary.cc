/**
 * @file
 * Batch summary implementations.
 */

#include "stats/summary.hh"

namespace ahq::stats
{

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : samples)
        acc += v;
    return acc / static_cast<double>(samples.size());
}

} // namespace ahq::stats
