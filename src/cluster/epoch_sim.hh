/**
 * @file
 * The epoch-level node simulator.
 *
 * One epoch is one monitoring interval (the paper uses 500 ms). Each
 * epoch the simulator (1) lets the scheduler react to the previous
 * epoch's measurements, (2) evaluates the contention model, (3)
 * advances each LC app's queue backlog (overload spills into the next
 * epoch), (4) measures p95 / IPC with repartition overhead and noise,
 * and (5) computes the interval's entropy report.
 */

#ifndef AHQ_CLUSTER_EPOCH_SIM_HH
#define AHQ_CLUSTER_EPOCH_SIM_HH

#include <cstdint>
#include <vector>

#include "check/check.hh"
#include "cluster/node.hh"
#include "core/entropy.hh"
#include "fault/plan.hh"
#include "machine/layout.hh"
#include "obs/attribution.hh"
#include "obs/scope.hh"
#include "obs/slo.hh"
#include "perf/contention.hh"
#include "perf/queueing.hh"
#include "sched/scheduler.hh"

namespace ahq::cluster
{

/** Simulator configuration (defaults match the paper's setup). */
struct SimulationConfig
{
    /** Monitoring interval, seconds (the paper uses 500 ms). */
    double epochSeconds = 0.5;

    /** Total simulated time, seconds. */
    double durationSeconds = 60.0;

    /** Leading epochs excluded from steady-state aggregates. */
    int warmupEpochs = 20;

    /** Lognormal sigma of tail-latency / IPC measurement noise. */
    double noiseSigma = 0.05;

    /**
     * Tail percentile fed to the entropy metric; the paper uses the
     * 95th "without losing generality". Fields named p95Ms hold it.
     */
    double tailPercentile = 0.95;

    /** Relative importance of LC over BE in E_S. */
    double ri = core::kDefaultRelativeImportance;

    /** RNG seed. */
    std::uint64_t seed = 42;

    /** Model repartitioning overhead (cache warm-up, migrations). */
    bool overheadEnabled = true;

    /** p95 inflation per LLC way an app gained or lost this epoch. */
    double overheadWaysFactor = 0.03;

    /** p95 inflation per core an app gained or lost this epoch. */
    double overheadCoresFactor = 0.06;

    /**
     * Queue backlog cap in seconds of offered work (Tailbench-style
     * generators bound outstanding requests, so overloaded tails
     * saturate instead of diverging). Every caller runs the default;
     * the experiment harness's chaos test deepens it so a load
     * spike's backlog outlives its block (tests/unset_knobs.cmake
     * lists it).
     */
    double queueCapSeconds = perf::kDefaultQueueCapSeconds;

    /** Contention model tunables. */
    perf::ContentionTraits contention;

    /**
     * Telemetry scope (null sinks by default), forwarded to the
     * scheduler. A sink gets run events and, from an observer, epoch
     * events; obs.series the per-epoch E_S / ReT / queue / allocation
     * / fault / violation series. Unattached, neither observer runs
     * (DESIGN.md §12).
     */
    obs::Scope obs;

    /**
     * Head-based trace sampling rate in [0, 1]. Below 1 an epoch's
     * events are kept iff epochTraceSampled(seed, epoch, rate) — a
     * pure function on its own RNG split — so sampled traces are
     * byte-identical across thread counts, and per-node seed salting
     * decides independently per (run, node). Only epoch/decision/
     * fault events are sampled: run_start/run_end, auditor
     * violations, metrics and time series are unaffected.
     */
    double traceSampleRate = 1.0;

    /**
     * Invariant auditing (src/check/), from AHQ_CHECK by default
     * (unset = off: no audit observer, DESIGN.md §12). `log` records
     * and traces violations; `strict` also throws at the first one.
     */
    check::Mode checkMode = check::modeFromEnv();

    /**
     * Optional fault plan (src/fault/), outliving the run. Null, or
     * a plan with no per-node directive (FaultPlan::perturbsNodes()),
     * keeps the exact unfaulted path; otherwise the plan drives a
     * per-run FaultInjector on a stream split off the run seed, so
     * faulted runs stay deterministic per (seed, plan).
     */
    const fault::FaultPlan *faults = nullptr;

    /**
     * Retain per-epoch records in SimulationResult::epochs (the full
     * timeline the figures, CSV dumps and timeline tools consume).
     * Off, a fleet of N nodes costs O(N) memory instead of
     * O(N x epochs); every aggregate and trace byte is identical
     * either way, since the simulator sums the steady state in epoch
     * order as it goes rather than scanning the records.
     */
    bool keepEpochs = true;

    /**
     * Counterfactual interference attribution (obs/attribution.hh):
     * each post-warmup epoch with a suffering LC app costs n extra
     * model evaluations (one per co-runner removed); shares fold into
     * SimulationResult::attribution and kept epochs emit one
     * `attribution` event per victim. Off adds no observer, so the
     * run is byte-identical to one without the seam (DESIGN.md §12).
     */
    bool attribute = false;

    /**
     * Online SLO burn-rate monitoring (obs/slo.hh) of every LC app's
     * violation bit: `alert_raise` / `alert_clear` events (never
     * sampled, like `violation`), slo.* counters and the totals in
     * SimulationResult::slo. Off: no observer.
     */
    bool slo = false;
};

/**
 * Epoch→arm mapping of the policy-swap seam: epoch e runs under
 * arms[blockArm[e / blockEpochs]] (the last block absorbs trailing
 * epochs). A swap changes what is simulated, so it is part of the
 * core step; a null schedule (run()) costs one branch per epoch.
 */
struct PolicySchedule
{
    /** Epochs per block (> 0 when the schedule is active). */
    int blockEpochs = 0;

    /** Arm index per block (values < the arm count of the run). */
    std::vector<int> blockArm;

    /** Arm in force at the given epoch. */
    int armAt(int epoch) const
    {
        if (blockEpochs <= 0 || blockArm.empty())
            return 0;
        auto b = static_cast<std::size_t>(epoch / blockEpochs);
        if (b >= blockArm.size())
            b = blockArm.size() - 1;
        return blockArm[b];
    }
};

/** Everything recorded about one epoch. */
struct EpochRecord
{
    double time = 0.0;

    /** Observations with measurements filled (indexed by AppId). */
    std::vector<sched::AppObservation> obs;

    /**
     * Outstanding requests per app at the end of the epoch (0 for
     * BE) — the queue-length series Little's-law DQ estimators use.
     */
    std::vector<double> queueBacklog;

    /** Policy arm in force during the epoch (0 without a schedule). */
    int policyArm = 0;

    /** Contention-model outcomes (indexed by AppId). */
    std::vector<perf::PerfOutcome> outcomes;

    /** Entropy accounting for the interval. */
    core::EntropyReport entropy;

    /** Copy of the layout in force during the epoch. */
    machine::RegionLayout layout{machine::ResourceVector{}};
};

/** Aggregated outcome of one simulation run. */
struct SimulationResult
{
    std::vector<EpochRecord> epochs;
    int warmupEpochs = 0;

    // Steady-state (post-warmup) aggregates.
    double meanELc = 0.0;
    double meanEBe = 0.0;
    double meanES = 0.0;

    /** Fraction of LC apps whose steady-state mean p95 meets QoS. */
    double yieldValue = 1.0;

    /** (LC app, epoch) pairs violating the elastic QoS target. */
    int violations = 0;

    /** Percentile the p95 fields hold (the config's tailPercentile). */
    double tailPercentile = 0.95;

    /** Steady-state mean p95 per app (0 for BE), ms. */
    std::vector<double> meanP95Ms;

    /** Steady-state mean IPC per app (0 for LC). */
    std::vector<double> meanIpc;

    /**
     * Post-warmup mean loadFraction per app (0 for BE). Fleet pooling
     * evaluates each LC app's solo-tail reference at this load, which
     * must match the regime meanP95Ms was averaged over — so warmup
     * epochs (a trace may still be ramping) are excluded here too.
     */
    std::vector<double> steadyMeanLoad;

    /**
     * Post-warmup attribution ledger keyed by app name (empty unless
     * SimulationConfig::attribute); a victim's total is its summed R_i.
     */
    obs::AttributionLedger attribution;

    /** Alert accounting (zeros unless SimulationConfig::slo). */
    obs::SloSummary slo;
};

/**
 * RNG stream for head-based trace sampling, split off the run seed
 * (cf. fault::kFaultStream): sampling never perturbs the noise, so a
 * sampled run's results are bit-identical to an unsampled one.
 */
inline constexpr std::uint64_t kTraceSampleStream = 0x7e1e5;

/**
 * Head-based sampling decision for one epoch: keep iff the draw on
 * split(seed, kTraceSampleStream, epoch) lands under `rate`. Pure
 * function of its arguments — no state, no ordering dependence.
 */
bool epochTraceSampled(std::uint64_t seed, int epoch, double rate);

/** Runs a scheduling strategy on a node for a configured duration. */
class EpochSimulator
{
  public:
    EpochSimulator(Node node, SimulationConfig config = {});

    /** One full run (reset() first, so schedulers can be reused). */
    SimulationResult run(sched::Scheduler &scheduler) const;

    /**
     * Policy-swap run under schedule.armAt(e)'s scheduler. Where the
     * arm changes, the incoming scheduler is reset() and rebuilds the
     * layout (a real rollout hands the controller the *system* state,
     * not its predecessor's), so backlog carries across the swap —
     * the carryover that makes naive A/B estimates lie — and the
     * repartition is charged through the overhead model. One arm and
     * an empty schedule is run(scheduler).
     *
     * @param arms Candidate schedulers (non-null, outlive the run).
     * @param schedule Epoch→arm mapping (see PolicySchedule).
     */
    SimulationResult
    runSwitched(const std::vector<sched::Scheduler *> &arms,
                const PolicySchedule &schedule) const;

    const Node &node() const { return node_; }
    const SimulationConfig &config() const { return cfg; }

  private:
    Node node_;
    SimulationConfig cfg;

    SimulationResult
    runImpl(sched::Scheduler *const *arms,
            const PolicySchedule *schedule) const;
};

} // namespace ahq::cluster

#endif // AHQ_CLUSTER_EPOCH_SIM_HH
