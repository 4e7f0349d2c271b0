/**
 * @file
 * Cycles-per-instruction model.
 *
 * CPI is decomposed into a core-bound base component plus a memory
 * component proportional to the LLC miss rate and the (contention-
 * dilated) effective miss penalty:
 *
 *     CPI(w, d) = cpi_base + mpki(w)/1000 * miss_penalty * d
 *
 * where w is the effective LLC way allocation and d >= 1 is the
 * memory-latency dilation produced by bandwidth contention. The
 * application's "speed" is CPI at ideal conditions divided by CPI at
 * the current conditions, i.e. 1.0 when running solo with the full
 * cache and an unloaded memory system.
 */

#ifndef AHQ_PERF_CPI_HH
#define AHQ_PERF_CPI_HH

#include <cassert>

#include "perf/mrc.hh"

namespace ahq::perf
{

/** Core frequency in GHz (Table III: 2.2 GHz). */
constexpr double kCoreFreqGhz = 2.2;

/** Bytes transferred per LLC miss (one cache line). */
constexpr double kBytesPerMiss = 64.0;

/** Per-application CPI traits. */
struct CpiTraits
{
    /** Core-bound CPI component (no LLC misses). */
    double cpiBase = 0.6;

    /** Average LLC miss penalty at an unloaded memory system, cycles. */
    double missPenaltyCycles = 180.0;

    /**
     * Memory-level parallelism: the number of outstanding misses the
     * core overlaps. The effective per-miss CPI cost is
     * missPenaltyCycles / mlp. Streaming codes with high MLP lose
     * little CPI per miss yet demand large bandwidth.
     */
    double mlp = 2.0;
};

/**
 * CPI model combining a miss-rate curve with CpiTraits.
 */
class CpiModel
{
  public:
    CpiModel(MissRateCurve mrc, CpiTraits traits);

    /** CPI at the given effective ways and memory dilation. */
    double
    cpi(double ways, double dilation) const
    {
        return cpiWithMissTerm(
            missTerm(mrc_.mpki(ways), overlappedPenalty()), dilation);
    }

    /** Cycles one miss costs once overlapped: penalty / mlp. */
    double
    overlappedPenalty() const
    {
        return traits_.missPenaltyCycles / traits_.mlp;
    }

    /**
     * The undilated memory term of CPI, mpki/1000 * penalty, where
     * penalty is overlappedPenalty(). The contention fixed point
     * hoists the penalty out of its iterations and shares one miss
     * term between its bandwidth and speed updates; both are bitwise
     * identical to recomputing them.
     */
    static double
    missTerm(double mpki, double penalty)
    {
        return mpki / 1000.0 * penalty;
    }

    /** CPI from an already evaluated missTerm(). */
    double
    cpiWithMissTerm(double miss_term, double dilation) const
    {
        assert(dilation >= 1.0);
        return traits_.cpiBase + miss_term * dilation;
    }

    /** CPI under ideal conditions (full cache, no dilation). */
    double cpiIdeal(double full_ways) const;

    /**
     * Memory bandwidth demand in GiB/s of one core running this app
     * flat out at the given CPI and miss rate.
     */
    double
    bwDemandPerCoreAtCpi(double cpi_now, double mpki) const
    {
        // instructions/s = freq / CPI;
        // bytes/s = inst/s * mpki/1000 * 64B.
        const double inst_per_ns = kCoreFreqGhz / cpi_now;
        const double bytes_per_ns =
            inst_per_ns * mpki / 1000.0 * kBytesPerMiss;
        // bytes/ns == GB/s; convert to GiB/s.
        return bytes_per_ns * 1e9 / (1024.0 * 1024.0 * 1024.0);
    }

    const MissRateCurve &mrc() const { return mrc_; }
    const CpiTraits &traits() const { return traits_; }

  private:
    MissRateCurve mrc_;
    CpiTraits traits_;
};

} // namespace ahq::perf

#endif // AHQ_PERF_CPI_HH
