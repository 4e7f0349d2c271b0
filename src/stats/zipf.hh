/**
 * @file
 * Zipfian sampler used to drive skewed request popularity, matching the
 * paper's Xapian setup ("query terms are chosen randomly, following a
 * Zipfian distribution").
 */

#ifndef AHQ_STATS_ZIPF_HH
#define AHQ_STATS_ZIPF_HH

#include <cstdint>
#include <vector>

namespace ahq::stats
{

/**
 * Zipf(s, n) sampler over ranks 1..n with exponent s.
 *
 * Uses a precomputed cumulative table with binary search, which is
 * exact and fast for the catalogue sizes the workload generators use
 * (up to a few hundred thousand items).
 */
class ZipfDistribution
{
  public:
    /**
     * @param n Number of ranked items; must be >= 1.
     * @param s Skew exponent; s = 0 degenerates to uniform.
     */
    ZipfDistribution(std::uint64_t n, double s);

    /**
     * Rank in [1, n] for a uniform draw u in [0, 1] (the inverse-CDF
     * step): u == 0.0 maps to rank 1 and u == 1.0 to rank n, never
     * past the table.
     */
    std::uint64_t sampleAt(double u) const;

    /** Probability mass of the given rank. */
    double pmf(std::uint64_t rank) const;

  private:
    std::vector<double> cdf;
};

} // namespace ahq::stats

#endif // AHQ_STATS_ZIPF_HH
