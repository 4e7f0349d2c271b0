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
 * lanes in lock-step, each lane a demand set with its own model,
 * layout and policy. The reuse rules that keep both bitwise
 * identical are in contention.cc.
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

class ContentionModel;

/**
 * One demand set of a lock-step evaluation: the model whose memo and
 * constants it uses, the layout and policy it runs under, its
 * demands (indexed by AppId) and the buffer its outcomes go to.
 */
struct ContentionLane
{
    const ContentionModel *model;
    const machine::RegionLayout *layout;
    const std::vector<AppDemand> *demands;
    CoreSharePolicy policy;
    std::vector<PerfOutcome> *out;
};

/**
 * Evaluates per-epoch application performance under a layout.
 *
 * A model keeps its evaluation memo and the constants the kernel
 * reads; the fixed point's scratch is one workspace per thread,
 * shared by every model that thread evaluates. evaluate() is
 * logically const but updates the memo, so a single instance must
 * not be used from multiple threads concurrently. Construct one
 * model per thread (the simulators and the oracle already do).
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
     * Evaluate demand sets over one layout and policy on this model:
     * the lanes (this, layout, batch[b], policy, outs[b]).
     */
    void evaluateBatchInto(const machine::RegionLayout &layout,
                           std::span<const std::vector<AppDemand>> batch,
                           CoreSharePolicy policy,
                           std::span<std::vector<PerfOutcome>> outs) const;

    /**
     * Evaluate every lane: *lane.out gets, bit for bit, what
     * lane.model->evaluateInto() of the lane would. Each lane looks
     * up its own model's memo, every lookup before any store, and the
     * misses are stored in lane order, so each model sees the hits
     * and misses that one call per lane would give it. Misses that
     * share the policy, the app count and kinds, the kernel
     * constants and the compiled member structure solve together in
     * lock-step passes of at most four lanes.
     */
    static void evaluateBatchInto(std::span<const ContentionLane> lanes);

    /** Evaluation-memo hits (telemetry and tests). */
    std::size_t memoHits() const { return memo_.hits(); }

  private:
    /** What the kernel reads of the machine and the traits. */
    struct Constants
    {
        double idealWays;    // the machine's full physical cache
        double machineBwCap; // available bandwidth, GiB/s
        double bwPerUnit;    // GiB/s per MBA unit
        double contentionK;  // bandwidth dilation curvature
        double sharedServicePenalty;

        bool operator==(const Constants &) const = default;
    };

    /** Scratch of the fixed point (contention.cc). */
    struct Workspace;

    /** The calling thread's workspace. */
    static Workspace &workspace();

    /** Compile the lane's layout into the workspace's next slot. */
    static void compileLayout(Workspace &ws,
                              const ContentionLane &lane);

    /** Solve lanes[pass[0..L)] in lock-step; lanes never mix. */
    template <std::size_t L>
    static void solveLanes(Workspace &ws,
                           std::span<const ContentionLane> lanes,
                           const std::size_t *pass);

    Constants k_;
    BandwidthModel bwModel;
    mutable EvaluationMemo<PerfOutcome> memo_;
};

} // namespace ahq::perf

#endif // AHQ_PERF_CONTENTION_HH
