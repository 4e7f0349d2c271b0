/**
 * @file
 * The cluster-level control plane: a scheduler *above* the per-node
 * schedulers, in the two-level split of datacenter reference
 * architectures — nodes partition their own resources every epoch
 * (Ah-Q / ARQ territory), while the cluster layer watches per-node
 * entropy and migrates applications between nodes when the
 * fleet-wide E_S spread says one node is absorbing far more
 * interference than its peers.
 */

#ifndef AHQ_CLUSTER_CLUSTER_SCHED_HH
#define AHQ_CLUSTER_CLUSTER_SCHED_HH

#include <string>
#include <vector>

#include "cluster/fleet.hh"
#include "trace/fleet_load.hh"

namespace ahq::cluster
{

/** Cluster-layer tunables. */
struct ClusterConfig
{
    /** Epochs simulated per rebalance round. */
    int roundEpochs = 20;

    /** Warmup epochs excluded from each round's aggregates. */
    int roundWarmupEpochs = 4;

    /** Number of rounds (migrations happen between rounds). */
    int rounds = 3;

    /**
     * Migrate only while the fleet-wide spread of per-node mean
     * E_S (max - min over occupied nodes) exceeds this.
     */
    double spreadThreshold = 0.10;

    /** Duration of each trial simulation, seconds. */
    static constexpr double trialSeconds = 4.0;

    /** Warmup epochs of each trial simulation. */
    static constexpr int trialWarmupEpochs = 2;
};

/** One migration decision. */
struct Migration
{
    /** Round after which the migration was applied. */
    int round = 0;

    int fromNode = 0;
    int toNode = 0;

    /** Name of the migrated application. */
    std::string app;
};

/** Outcome of a ClusterScheduler run. */
struct ClusterResult
{
    /** Fleet-pooled E_S per round, in round order. */
    std::vector<double> roundES;

    /** Per-round spread of node mean E_S (max - min, occupied). */
    std::vector<double> roundSpread;

    /** Entropy pooled over every round's steady state. */
    double eLc = 0.0;
    double eBe = 0.0;
    double eS = 0.0;
    double yieldValue = 1.0;

    /** QoS violations over all rounds and nodes. */
    long long violations = 0;

    /** Applied migrations, in application order. */
    std::vector<Migration> migrations;

    /** Per-node mean E_S measured in the final round. */
    std::vector<double> finalNodeES;

    /** Apps per node after the final round. */
    std::vector<int> finalAppsPerNode;

    /**
     * Attribution ledger pooled over every measurement round in
     * (round, node) order; empty unless the base SimulationConfig
     * sets `attribute`. The same ledger backs the `blame` field
     * migrations cite in `cluster_migrate` trace events.
     */
    obs::AttributionLedger attribution;

    /** Summed alert accounting (zeros unless base config slo). */
    obs::SloSummary slo;
};

/**
 * Entropy-driven cluster scheduler.
 *
 * run() alternates measurement rounds (every node simulates
 * roundEpochs epochs in parallel, aggregated with the same
 * streaming accumulators Fleet uses) with rebalance steps: while
 * the spread of per-node mean E_S exceeds spreadThreshold, the
 * scheduler picks the hottest node (argmax mean E_S, >= 2 apps),
 * finds the app whose removal lowers that node's entropy most
 * (PlacementAdvisor-style trial simulations), and migrates it to
 * the node where a trial colocation yields the lowest E_S. All
 * trials run on the pool; every argmin/argmax scans in index order
 * with strict comparison, so the whole run is deterministic per
 * (nodes, config, seed) at any thread count.
 */
class ClusterScheduler
{
  public:
    /**
     * @param config Cluster-layer tunables.
     * @param strategy Per-node scheduling strategy name (see
     *        sched::allStrategyNames()); each node gets a fresh
     *        instance per round, and each trial its own.
     */
    ClusterScheduler(ClusterConfig config, std::string strategy);

    /** Add a node (its machine plus initial colocation). */
    void addNode(machine::MachineConfig config,
                 std::vector<ColocatedApp> apps);

    int numNodes() const
    {
        return static_cast<int>(configs_.size());
    }

    /** Current colocation of one node (mutated by migrations). */
    const std::vector<ColocatedApp> &apps(int node) const
    {
        return apps_[static_cast<std::size_t>(node)];
    }

    /**
     * Run the full measurement/rebalance loop. `base` supplies the
     * epoch length, seed, noise model and telemetry scope; its
     * duration/warmup fields are overridden per round from the
     * ClusterConfig.
     *
     * @param pool Pool to fan out on; nullptr = globalPool().
     */
    ClusterResult run(const SimulationConfig &base,
                      exec::ThreadPool *pool = nullptr);

  private:
    ClusterConfig cfg;
    std::string strategy_;
    std::vector<machine::MachineConfig> configs_;
    std::vector<std::vector<ColocatedApp>> apps_;
};

/**
 * Materialize one node's colocation from the global load
 * generator: cfg.lcPerNode LC apps — each assigned a tenant
 * (Zipf-skewed) whose shared diurnal/flash trace drives its load,
 * profile cycled from the LC catalogue by tenant rank and tagged
 * "#t<rank>" — plus cfg.bePerNode BE fillers cycled from the BE
 * catalogue. Pure function of (generator, node): any subrange of a
 * 10k-node fleet materializes independently and identically.
 */
std::vector<ColocatedApp>
fleetNodeApps(const trace::FleetLoadGenerator &gen, int node);

} // namespace ahq::cluster

#endif // AHQ_CLUSTER_CLUSTER_SCHED_HH
