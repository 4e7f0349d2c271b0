/**
 * @file
 * Zipf sampler implementation.
 */

#include "stats/zipf.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ahq::stats
{

ZipfDistribution::ZipfDistribution(std::uint64_t n, double s)
{
    assert(n >= 1);
    cdf.resize(n);
    double acc = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k), s);
        cdf[k - 1] = acc;
    }
    for (auto &v : cdf)
        v /= acc;
    // Guard against floating point drift in the final entry.
    cdf.back() = 1.0;
}

std::uint64_t
ZipfDistribution::sampleAt(double u) const
{
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    // cdf.back() is pinned to 1.0, so only u > 1.0 can fall past
    // the table; clamp it to the last rank rather than return n+1.
    if (it == cdf.end())
        return cdf.size();
    return static_cast<std::uint64_t>(it - cdf.begin()) + 1;
}

double
ZipfDistribution::pmf(std::uint64_t rank) const
{
    assert(rank >= 1 && rank <= cdf.size());
    const double lo = rank == 1 ? 0.0 : cdf[rank - 2];
    return cdf[rank - 1] - lo;
}

} // namespace ahq::stats
