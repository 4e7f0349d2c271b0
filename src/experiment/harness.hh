/**
 * @file
 * The online experiment harness: run a two-arm policy experiment
 * over a live fleet and estimate what switching schedulers would
 * buy, without ever running the counterfactual fleet.
 *
 * Each node simulates its full assignment (switchback blocks or a
 * single interleaved arm) through EpochSimulator::runSwitched — so
 * queue state genuinely carries across policy swaps, the
 * interference an offline pilot never shows. Per-(node, block)
 * aggregates feed the naive / Differences-in-Q / mixed estimators
 * and the experiment verdict.
 *
 * Determinism: node n runs on seed exec::nodeSeed(base.seed, n)
 * (the Fleet salting), the design randomization lives on its own
 * RNG stream, nodes fan out through exec::NodeFanOut (per-node
 * trace buffers and profilers, flushed in node order), and every
 * aggregate is summed in epoch order — results and trace bytes are
 * identical at any thread count.
 */

#ifndef AHQ_EXPERIMENT_HARNESS_HH
#define AHQ_EXPERIMENT_HARNESS_HH

#include "cluster/cluster_sched.hh"
#include "cluster/epoch_sim.hh"
#include "experiment/design.hh"
#include "experiment/estimator.hh"
#include "machine/config.hh"
#include "trace/fleet_load.hh"

namespace ahq::exec
{
class ThreadPool;
}

namespace ahq::experiment
{

/** Everything one experiment run needs. */
struct ExperimentRunConfig
{
    ExperimentDesign design;

    EstimatorConfig estimator;

    /**
     * Per-node simulation settings (epoch length, noise, seed,
     * telemetry scope, faults). durationSeconds / warmupEpochs /
     * keepEpochs are overridden by the harness: the design fixes
     * the epoch count, blocks handle their own warmup, and the
     * block extraction needs the per-epoch records.
     */
    cluster::SimulationConfig base;

    /**
     * Fleet workload (tenants, diurnal traces); numNodes is
     * overridden from the design. Nodes materialize through
     * cluster::fleetNodeApps, so the experiment fleet is the same
     * pure function of (load config, node) the fleet CLI runs.
     */
    trace::FleetLoadConfig load;

    /** Node hardware (identical across the fleet). */
    machine::MachineConfig machine =
        machine::MachineConfig::xeonE52630v4().withAvailable(6, 10,
                                                             6);
};

/** Outcome of one experiment run. */
struct ExperimentResult
{
    ExperimentDesign design;

    /** Per-(node, block) aggregates, node-major in block order. */
    std::vector<BlockStat> blocks;

    ExperimentEstimates estimates;

    Verdict verdict = Verdict::Inconclusive;

    /** Policy swaps across all nodes (arm changes in-schedule). */
    int policySwaps = 0;

    /**
     * Per-node blame ledgers merged in node order; empty unless
     * base.attribute is set.
     */
    obs::AttributionLedger attribution;

    /** Summed alert accounting (zeros unless base.slo). */
    obs::SloSummary slo;
};

/**
 * Per-(node, block) aggregates of one node's switched run: mean
 * E_S, pooled LC p95, total LC queue / arrival rate, the inherited
 * start-of-block queue, and the QoS-violation rate. Exposed for
 * tests and for estimator studies on hand-built runs.
 *
 * @param res A run with per-epoch records (keepEpochs).
 * @param design The experiment geometry the run followed.
 * @param node This node's index (labels the stats).
 */
std::vector<BlockStat>
extractBlocks(const cluster::SimulationResult &res,
              const ExperimentDesign &design, int node);

/**
 * Run the experiment: materialize the fleet, run every node's
 * assignment in parallel, aggregate blocks, estimate, and decide.
 * Emits experiment_start / experiment_block / experiment_end trace
 * events through config.base.obs when a sink is attached.
 *
 * @param pool Pool to fan out on; nullptr = globalPool().
 */
ExperimentResult
runExperiment(const ExperimentRunConfig &config,
              exec::ThreadPool *pool = nullptr);

} // namespace ahq::experiment

#endif // AHQ_EXPERIMENT_HARNESS_HH
