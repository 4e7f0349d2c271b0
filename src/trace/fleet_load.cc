/**
 * @file
 * Fleet load generator implementation.
 */

#include "trace/fleet_load.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "stats/rng.hh"

namespace ahq::trace
{

namespace
{

/** RNG stream ids (cf. fault::kFaultStream's discipline). */
constexpr std::uint64_t kAssignStream = 0xa5516;
constexpr std::uint64_t kTenantStream = 0x7e9a9;

constexpr double kTwoPi = 6.283185307179586476925286766559;

/** Peak load fraction of the least popular tenant. */
constexpr double kBaseLoad = 0.15;

/** Peak load fraction of the rank-1 tenant. */
constexpr double kPeakLoad = 0.85;

/** Length of one simulated "day", seconds. */
constexpr double kDiurnalPeriodS = 240.0;

/** Night-time load as a fraction of the tenant's peak. */
constexpr double kDiurnalLowFraction = 0.35;

/** Fraction of tenants that exhibit flash crowds. */
constexpr double kFlashFraction = 0.15;

/** Extra load during a flash crowd. */
constexpr double kFlashAmplitude = 0.35;

/** Time between flash-crowd starts, seconds. */
constexpr double kFlashPeriodS = 90.0;

/** Flash-crowd duration, seconds. */
constexpr double kFlashDurationS = 10.0;

/** Hard cap on any tenant's load fraction. */
constexpr double kLoadCap = 0.95;

/**
 * One tenant's load: a phase-shifted diurnal sinusoid scaled to the
 * tenant's popularity peak, plus an optional periodic flash-crowd
 * overlay, clamped to kLoadCap.
 */
class TenantTrace final : public LoadTrace
{
  public:
    TenantTrace(double peak, double phase_s, bool flashes,
                double flash_phase_s)
        : peak_(peak), phase(phase_s), flashes_(flashes),
          flashPhase(flash_phase_s)
    {
    }

    double at(double time_s) const override
    {
        // Diurnal: kDiurnalLowFraction of peak at "night", full peak
        // at midday, sinusoidal in between.
        const double day = 0.5 *
            (1.0 - std::cos(kTwoPi * (time_s + phase) / kDiurnalPeriodS));
        double load = peak_ *
            (kDiurnalLowFraction + (1.0 - kDiurnalLowFraction) * day);
        if (flashes_) {
            const double t = time_s + flashPhase;
            const double in_period =
                t - std::floor(t / kFlashPeriodS) * kFlashPeriodS;
            if (in_period < kFlashDurationS)
                load += kFlashAmplitude;
        }
        return std::clamp(load, 0.0, kLoadCap);
    }

  private:
    double peak_, phase;
    bool flashes_;
    double flashPhase;
};

} // namespace

FleetLoadGenerator::FleetLoadGenerator(FleetLoadConfig config)
    : cfg(config),
      zipf(static_cast<std::uint64_t>(
               std::max(config.numTenants, 1)),
           config.zipfSkew)
{
    assert(cfg.numTenants >= 1);
    const auto m = static_cast<std::uint64_t>(cfg.numTenants);
    traces.reserve(m);
    peaks.reserve(m);
    const stats::Rng root(cfg.seed);
    const double pmf1 = zipf.pmf(1);
    for (std::uint64_t r = 1; r <= m; ++r) {
        // Per-tenant stream: the draw order below is part of the
        // determinism contract (phase, flash gate, flash phase).
        stats::Rng rng = root.split(kTenantStream).split(r);
        const double peak = kBaseLoad +
            (kPeakLoad - kBaseLoad) * (zipf.pmf(r) / pmf1);
        const double phase = rng.uniform(0.0, kDiurnalPeriodS);
        const bool flash = rng.bernoulli(kFlashFraction);
        const double flash_phase = rng.uniform(0.0, kFlashPeriodS);
        peaks.push_back(peak);
        traces.push_back(
            std::make_shared<TenantTrace>(peak, phase, flash, flash_phase));
    }
}

std::uint64_t
FleetLoadGenerator::tenant(int node, int slot) const
{
    // One uniform draw on a split keyed by (node, slot): stateless,
    // so materializing any node is independent of every other.
    stats::Rng rng = stats::Rng(cfg.seed)
                         .split(kAssignStream)
                         .split(static_cast<std::uint64_t>(node) + 1)
                         .split(static_cast<std::uint64_t>(slot) + 1);
    return zipf.sampleAt(rng.uniform());
}

std::shared_ptr<LoadTrace>
FleetLoadGenerator::tenantTrace(std::uint64_t rank) const
{
    assert(rank >= 1 && rank <= traces.size());
    return traces[rank - 1];
}

double
FleetLoadGenerator::tenantPeakLoad(std::uint64_t rank) const
{
    assert(rank >= 1 && rank <= peaks.size());
    return peaks[rank - 1];
}

} // namespace ahq::trace
