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
 * convergence). A memo miss compiles its inputs into flat arrays
 * once and iterates over them; evaluateBatchInto() solves several
 * demand sets over one layout in lock-step. The reuse rules that
 * keep both bitwise identical are in contention.cc.
 */

#ifndef AHQ_PERF_CONTENTION_HH
#define AHQ_PERF_CONTENTION_HH

#include <cstdint>
#include <span>
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

/**
 * Tunables of the contention model that bench/sensitivity_model
 * sweeps; the fixed point's iteration count and damping are
 * constants of contention.cc.
 */
struct ContentionTraits
{
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

    /**
     * Evaluate demand sets that share the layout, the policy, the
     * app count and each app's kind: outs[b] gets, bit for bit, what
     * evaluateInto() of batch[b] would. The memo misses among them
     * are solved together in lock-step, then stored.
     */
    void evaluateBatchInto(const machine::RegionLayout &layout,
                           std::span<const std::vector<AppDemand>> batch,
                           CoreSharePolicy policy,
                           std::span<std::vector<PerfOutcome>> outs) const;

    /** Evaluation-memo hits (telemetry and tests). */
    std::size_t memoHits() const { return memo_.hits(); }

  private:
    /**
     * Flat scratch reused across calls. A call with misses compiles
     * the layout into columns every lane shares (indexed by AppId or
     * member position); each pass of L lanes compiles its demands
     * into lane columns, one value per (app or member, lane) with
     * lanes innermost, so every phase issues L independent copies of
     * the same operations. Once warm, a miss allocates nothing.
     */
    struct Workspace
    {
        /** A shared region: LC members [begin, mid), BE [mid, end). */
        struct CoreRegion
        {
            double cores;
            std::size_t begin, mid, end;
        };

        /** A region with members and ways, in region order. */
        struct WayRegion
        {
            bool shared;
            double ways;
            double share; // non-shared: each member's ways
            std::size_t begin, end;
        };

        // Layout columns: kind, iso grants, MBA cap, initial ways.
        std::vector<char> lc;
        std::vector<double> isoLc, isoBe, capGibps, ways0;
        std::vector<CoreRegion> coreRegions;
        std::vector<std::size_t> coreMembers;
        std::vector<WayRegion> wayRegions;
        std::vector<std::size_t> wayMembers;

        // Per app and lane, fixed for the pass: lambda is the LC
        // offered load in core-seconds per second, penalty the
        // overlapped miss penalty.
        std::vector<double> threads, lambda, cpiIdeal, penalty, burstCap;
        // Per app and lane, the fixed point's state; load is lambda / speed.
        std::vector<double> speed, ways, dilation, mbaScale, stretch;
        std::vector<double> prevStretch, sharedGrant, beCores, busy;
        std::vector<double> bwDemand, load, mpki, missTerm, newWays;

        // Per shared-region member and lane; own is an LC member's
        // occupancy (LcPriority) or runnable threads (FairShare).
        std::vector<double> memberThreads, own, caps, grants;
        std::vector<char> frozen;
        std::vector<double> intensity; // per way-region member and lane

        // Per set of the batch: its memo key and hash; the misses.
        std::vector<std::vector<double>> memoKeys;
        std::vector<std::uint64_t> hashes;
        std::vector<std::size_t> misses;
    };

    /** Compile the layout columns every lane of a call shares. */
    void compileLayout(const machine::RegionLayout &layout,
                       const std::vector<AppDemand> &demands) const;

    /** Solve batch[lanes[0..L)] in lock-step; lanes never mix. */
    template <std::size_t L>
    void solveLanes(std::span<const std::vector<AppDemand>> batch,
                    const std::size_t *lanes, CoreSharePolicy policy,
                    std::span<std::vector<PerfOutcome>> outs) const;

    machine::MachineConfig config_;
    ContentionTraits traits_;
    BandwidthModel bwModel;
    mutable Workspace ws_;
    mutable EvaluationMemo<PerfOutcome> memo_;
};

} // namespace ahq::perf

#endif // AHQ_PERF_CONTENTION_HH
