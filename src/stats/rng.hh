/**
 * @file
 * Seeded pseudo-random number generation for the Ah-Q simulator.
 *
 * Every stochastic component in the library draws from an explicitly
 * seeded Rng passed in by the caller, which keeps whole-system runs
 * reproducible bit-for-bit. The generator is xoshiro256**, which is
 * small, fast and of high statistical quality.
 */

#ifndef AHQ_STATS_RNG_HH
#define AHQ_STATS_RNG_HH

#include <cstdint>

namespace ahq::stats
{

/**
 * Deterministic random number generator (xoshiro256**).
 *
 * Provides the distributions the simulator needs: uniform, exponential,
 * normal, lognormal and Poisson. The state is fully determined by the
 * seed, and independent streams can be created via split().
 */
class Rng
{
  public:
    /** Construct a generator from a 64-bit seed via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit output of xoshiro256**. */
    std::uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Exponential variate with the given rate (mean 1/rate). */
    double exponential(double rate);

    /** Standard normal variate (Box-Muller with caching). */
    double normal();

    /** Normal variate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Lognormal multiplicative noise factor.
     *
     * Returns exp(N(-sigma^2/2, sigma)), which has mean 1, so that
     * applying it to a measurement leaves the expectation unchanged.
     *
     * @param sigma Standard deviation of the underlying normal.
     */
    double lognormalNoise(double sigma);

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p);

    /**
     * Derive an independent child generator.
     *
     * The child stream is a deterministic function of the parent state
     * and the supplied stream id; the parent state is not advanced.
     */
    Rng split(std::uint64_t stream_id) const;

  private:
    std::uint64_t state[4];
    double cachedNormal;
    bool hasCachedNormal;
};

} // namespace ahq::stats

#endif // AHQ_STATS_RNG_HH
