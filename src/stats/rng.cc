/**
 * @file
 * Implementation of the xoshiro256** generator and distributions.
 */

#include "stats/rng.hh"

#include <cassert>
#include <cmath>

namespace ahq::stats
{

namespace
{

/** splitmix64 step, used for seeding and stream derivation. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : cachedNormal(0.0), hasCachedNormal(false)
{
    std::uint64_t s = seed;
    for (auto &word : state)
        word = splitmix64(s);
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;

    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);

    return result;
}

double
Rng::uniform()
{
    // Use the top 53 bits for a double in [0, 1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    assert(n > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    std::uint64_t v;
    do {
        v = nextU64();
    } while (v >= limit);
    return v % n;
}

double
Rng::exponential(double rate)
{
    assert(rate > 0.0);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

double
Rng::normal()
{
    if (hasCachedNormal) {
        hasCachedNormal = false;
        return cachedNormal;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal = r * std::sin(theta);
    hasCachedNormal = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormalNoise(double sigma)
{
    if (sigma <= 0.0)
        return 1.0;
    return std::exp(normal(-0.5 * sigma * sigma, sigma));
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

Rng
Rng::split(std::uint64_t stream_id) const
{
    std::uint64_t mix = state[0] ^ rotl(state[2], 13) ^
        (stream_id * 0xd1342543de82ef95ull + 0x2545f4914f6cdd1dull);
    return Rng(mix);
}

} // namespace ahq::stats
