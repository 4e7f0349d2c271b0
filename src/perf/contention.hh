/**
 * @file
 * The contention model: maps a (RegionLayout, per-app demand) pair to
 * per-application performance for one monitoring epoch.
 *
 * The model captures the first-order interference mechanisms of the
 * paper's testbed:
 *
 *  - LLC way contention. Isolated regions give their single member
 *    all their ways; within a shared region, members steal ways from
 *    each other in proportion to access intensity (occupancy-weighted
 *    marginal miss mass), the standard way-competition approximation.
 *
 *  - Core contention. Isolated cores belong to their member. In a
 *    shared region, cores are granted by weighted max-min water-
 *    filling. Under the FairShare policy (Linux CFS) every member's
 *    threads have equal weight, and when runnable threads exceed
 *    cores, every request's service time stretches by the runnable/
 *    cores ratio (processor sharing). Under the LcPriority policy
 *    (SCHED_RR for LC / ARQ's shared region) LC apps preempt BE apps:
 *    LC sees only other LC occupancy, BE receives the leftover.
 *
 *  - Memory bandwidth contention. Each app's bandwidth demand follows
 *    from its miss rate and executing cores; utilisation of the MBA
 *    partition and of the machine dilates memory latency via
 *    BandwidthModel, feeding back into CPI.
 *
 * These interact, so evaluate() runs a damped fixed-point iteration
 * (the quantities are smooth and contractive in practice; tests check
 * convergence).
 */

#ifndef AHQ_PERF_CONTENTION_HH
#define AHQ_PERF_CONTENTION_HH

#include <vector>

#include "machine/config.hh"
#include "machine/layout.hh"
#include "perf/bandwidth.hh"
#include "perf/contention_cache.hh"
#include "perf/cpi.hh"

namespace ahq::perf
{

/** How cores are shared inside shared regions. */
enum class CoreSharePolicy
{
    /** Linux CFS: all threads equal weight, processor sharing. */
    FairShare,

    /** LC apps preempt BE apps (RT priority / ARQ shared region). */
    LcPriority,
};

/** Per-application inputs to the contention model for one epoch. */
struct AppDemand
{
    /** True for latency-critical, false for best-effort. */
    bool latencyCritical = false;

    /** LC: request arrival rate, requests/second. */
    double arrivalRate = 0.0;

    /**
     * LC: base service demand per request, milliseconds of one core
     * at speed 1.0 (solo, full cache, unloaded memory).
     */
    double serviceTimeMs = 1.0;

    /** BE: IPC when running solo under ideal conditions. */
    double ipcSolo = 1.0;

    /** Software thread count (the paper uses 4; STREAM uses 10). */
    int threads = 4;

    /** Cache/CPI behaviour. */
    CpiModel cpi;

    AppDemand() : cpi(MissRateCurve(10.0, 1.0, 4.0), CpiTraits{}) {}
};

/** Per-application outputs of the contention model for one epoch. */
struct PerfOutcome
{
    /** Core-equivalents granted (LC: M/M/c server count). */
    double coreEquivalents = 0.0;

    /** Effective LLC ways after sharing/stealing. */
    double effectiveWays = 0.0;

    /** Memory latency dilation applied to the app (>= 1). */
    double bwDilation = 1.0;

    /**
     * Speed factor relative to solo-ideal (cache + memory effects
     * only; core starvation is captured by coreEquivalents and
     * serviceStretch instead).
     */
    double speed = 1.0;

    /**
     * Processor-sharing service-time stretch (>= 1) from timeslicing
     * when runnable threads exceed cores in the app's shared region.
     */
    double serviceStretch = 1.0;

    /** LC: per-server service rate, requests/second per core-eq. */
    double perServerRate = 0.0;

    /** LC: total service capacity, requests/second. */
    double serviceRate = 0.0;

    /** LC: offered utilisation = lambda / serviceRate. */
    double utilization = 0.0;

    /** BE: achieved IPC. */
    double ipc = 0.0;

    /** Memory bandwidth demand, GiB/s. */
    double bwDemandGibps = 0.0;
};

/** Tunables of the contention model. */
struct ContentionTraits
{
    /** Fixed-point iterations. */
    int iterations = 20;

    /** Damping factor for the fixed point (0 = frozen, 1 = jumpy). */
    double damping = 0.6;

    /** Bandwidth dilation curve. */
    BandwidthTraits bandwidth;

    /**
     * Service-time inflation for LC work executed on shared-region
     * cores (>= 1). Between LC requests a shared core runs other
     * work, so each request pays context-switch and private-cache
     * refill costs that an isolated core does not — the reason
     * resource isolation has value at all (Section IV-A's overhead
     * triangles).
     */
    double sharedServicePenalty = 1.15;
};

/**
 * Evaluates per-epoch application performance under a layout.
 *
 * evaluate() is logically const but reuses an internal scratch
 * workspace across calls, so a single instance must not be used from
 * multiple threads concurrently. Construct one model per thread (the
 * simulators and the oracle already do).
 */
class ContentionModel
{
  public:
    ContentionModel(machine::MachineConfig config,
                    ContentionTraits traits = {});

    /**
     * Evaluate the performance of every application.
     *
     * @param layout A valid layout covering all apps in demands.
     * @param demands Per-app demands, indexed by AppId.
     * @param policy Core sharing policy for shared regions.
     * @return Per-app outcomes, indexed by AppId.
     */
    std::vector<PerfOutcome>
    evaluate(const machine::RegionLayout &layout,
             const std::vector<AppDemand> &demands,
             CoreSharePolicy policy) const;

    /**
     * As evaluate(), but writing the outcomes into @p out (resized to
     * the app count) so steady-state callers recycle the buffer.
     */
    void evaluateInto(const machine::RegionLayout &layout,
                      const std::vector<AppDemand> &demands,
                      CoreSharePolicy policy,
                      std::vector<PerfOutcome> &out) const;

    const machine::MachineConfig &config() const { return config_; }
    const ContentionTraits &traits() const { return traits_; }

    /** Evaluation-memo statistics (tests and telemetry). */
    std::size_t memoHits() const { return memo_.hits(); }
    std::size_t memoMisses() const { return memo_.misses(); }

  private:
    /** Mutable per-app state threaded through the fixed point. */
    struct AppState
    {
        double speed = 1.0;       // cache+memory speed factor
        double ways = 1.0;        // effective LLC ways
        double dilation = 1.0;    // memory latency dilation
        double isoCores = 0.0;    // cores from isolated regions
        double sharedGrant = 0.0; // core-equivalents, shared regions
        double stretch = 1.0;     // PS service-time stretch
        double beCores = 0.0;     // BE: granted cores (iso + shared)
        double busyCores = 0.0;   // cores actively executing
        double bwDemand = 0.0;    // GiB/s
        double mbaScale = 1.0;    // throttle past the MBA cap
    };

    /**
     * Scratch buffers reused across evaluate() calls, plus the
     * iteration-invariant per-app quantities hoisted out of the
     * fixed-point loop (iso-core grants, offered load, MBA caps,
     * shared-region member splits). Once warm, an evaluation
     * allocates only its result vector.
     */
    struct Workspace
    {
        std::vector<AppState> st;
        std::vector<double> prevStretch;
        std::vector<double> isoLc;    // iso cores granted to LC apps
        std::vector<double> isoBe;    // iso cores granted to BE apps
        std::vector<double> lambda;   // LC offered load, core-seconds/s
        std::vector<double> capGibps; // per-app MBA bandwidth cap
        std::vector<std::vector<machine::AppId>> lcOf; // shared regions
        std::vector<std::vector<machine::AppId>> beOf; // shared regions
        std::vector<double> resid, burstCap, activeLc;
        std::vector<double> caps, weights, grants; // water-fill scratch
        std::vector<char> frozen;                  // water-fill scratch
        std::vector<double> intensity, newWays;
        std::vector<double> cpiIdeal; // hoisted per-app ideal CPI
        std::vector<double> mpki;     // per-iteration mpki(ways)
        std::vector<double> memoKey;  // canonicalised memo key
    };

    machine::MachineConfig config_;
    ContentionTraits traits_;
    BandwidthModel bwModel;
    mutable Workspace ws_;
    mutable EvaluationMemo<PerfOutcome> memo_;
};

} // namespace ahq::perf

#endif // AHQ_PERF_CONTENTION_HH
