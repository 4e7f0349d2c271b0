/**
 * @file
 * Request-level simulator of an ARQ-style region layout: several LC
 * classes, each with optional private (isolated) servers plus access
 * to a shared server pool where LC work preempts saturating BE work.
 *
 * This is the independent validation path for the analytic
 * LcPriority contention model: the epoch simulator predicts each
 * class's capacity and tail latency from closed-form approximations;
 * this simulator measures them from first principles (tests compare
 * the two).
 */

#ifndef AHQ_SIM_MULTICLASS_SIM_HH
#define AHQ_SIM_MULTICLASS_SIM_HH

#include <vector>

#include "sim/simulator.hh"
#include "stats/rng.hh"

namespace ahq::sim
{

/** One LC class of the multi-class simulation. */
struct LcClassSpec
{
    /** Poisson arrival rate, requests/second. */
    double arrivalRate = 100.0;

    /** Exponential service rate per server, requests/second. */
    double serviceRate = 500.0;

    /** Private servers only this class may use. */
    int isolatedServers = 0;

    /**
     * Concurrency cap: max requests of this class in service at
     * once (its thread count). <= isolated + shared servers.
     */
    int maxConcurrency = 4;
};

/** Result of one multi-class run. */
struct MultiClassResult
{
    /** Per-class sojourn times, seconds, completion order. */
    std::vector<std::vector<double>> lcSojournTimes;

    /** BE work chunks completed on the shared pool after warmup. */
    std::uint64_t beChunksCompleted = 0;

    /** The measured window, duration - warmup, seconds. */
    double measuredSeconds = 0.0;

    /** LC requests that arrived over the whole run (all classes). */
    std::uint64_t lcArrivals = 0;

    /** LC requests still queued or in service when the run ended. */
    std::uint64_t lcInSystem = 0;

    /** Server-busy seconds of the completed LC requests. */
    double lcBusySeconds = 0.0;

    /** BE throughput over the measured window, chunks/second. */
    double
    beThroughput() const
    {
        return measuredSeconds > 0.0 ?
            static_cast<double>(beChunksCompleted) / measuredSeconds
            : 0.0;
    }
};

/**
 * The multi-class preemptive-priority region simulator.
 */
class MultiClassSimulator
{
  public:
    /**
     * @param classes The LC classes.
     * @param shared_servers Shared pool size (>= 0).
     * @param be_chunk_rate BE chunk service rate per shared server;
     *        0 disables BE work.
     */
    MultiClassSimulator(std::vector<LcClassSpec> classes,
                        int shared_servers, double be_chunk_rate);

    /**
     * Run for the given simulated duration.
     *
     * @param duration Simulated seconds.
     * @param rng Seeded random source.
     * @param warmup Discard samples arriving before this time.
     */
    MultiClassResult run(double duration, stats::Rng &rng,
                         double warmup = 0.0) const;

  private:
    std::vector<LcClassSpec> classes_;
    int sharedServers;
    double beChunkRate;
};

} // namespace ahq::sim

#endif // AHQ_SIM_MULTICLASS_SIM_HH
