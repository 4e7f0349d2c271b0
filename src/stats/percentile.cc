/**
 * @file
 * Exact percentile implementation.
 */

#include "stats/percentile.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ahq::stats
{

double
exactPercentile(std::vector<double> samples, double p)
{
    if (std::isnan(p) || p < 0.0 || p > 100.0) {
        throw std::invalid_argument(
            "exactPercentile: p = " + std::to_string(p) +
            " outside [0, 100]");
    }
    if (samples.empty())
        return 0.0; // by definition: no samples, zero latency
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (std::isnan(samples[i])) {
            throw std::invalid_argument(
                "exactPercentile: sample " + std::to_string(i) +
                " is NaN");
        }
    }
    std::sort(samples.begin(), samples.end());
    if (samples.size() == 1)
        return samples.front();
    const std::size_t last = samples.size() - 1;
    const double rank = (p / 100.0) * static_cast<double>(last);
    // Clamp both ranks into the array: p == 100 must return the
    // maximum without indexing past the final bucket, whatever
    // floating-point rounding did to rank.
    const auto lo = std::min(
        static_cast<std::size_t>(std::floor(rank)), last);
    const auto hi = std::min(
        static_cast<std::size_t>(std::ceil(rank)), last);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

} // namespace ahq::stats
