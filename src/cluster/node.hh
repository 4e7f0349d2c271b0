/**
 * @file
 * A colocation node: one machine plus the applications pinned to it
 * and the load traces driving the LC apps.
 */

#ifndef AHQ_CLUSTER_NODE_HH
#define AHQ_CLUSTER_NODE_HH

#include <memory>
#include <string>
#include <vector>

#include "apps/profile.hh"
#include "machine/config.hh"
#include "perf/contention.hh"
#include "sched/scheduler.hh"
#include "trace/load_trace.hh"

namespace ahq::cluster
{

/** One application colocated on a node with its load trace. */
struct ColocatedApp
{
    apps::AppProfile profile;

    /** Load trace (LC apps only; BE apps always run flat out). */
    std::shared_ptr<trace::LoadTrace> load;

    /**
     * Post-migration cold-start window: for the first coldEpochs
     * epochs of a run this app's service is degraded (its caches
     * drained with the move and must re-warm), so a migration is
     * never free. 0 (the default) is the exact warm path.
     */
    int coldEpochs = 0;

    /**
     * Fractional service degradation at epoch 0 of the cold
     * window, decaying linearly to 0 over coldEpochs: effective
     * service times are stretched by 1 + coldPenalty * remaining /
     * coldEpochs (LC), and BE IPC divided by the same factor.
     */
    double coldPenalty = 0.0;
};

/** Convenience: colocate an LC app at a constant load fraction. */
ColocatedApp lcAt(apps::AppProfile profile, double load_fraction);

/** Convenience: colocate an LC app with an arbitrary trace. */
ColocatedApp lcWith(apps::AppProfile profile,
                    std::shared_ptr<trace::LoadTrace> load);

/** Convenience: colocate a BE app. */
ColocatedApp be(apps::AppProfile profile);

/**
 * A datacenter node with its colocated applications.
 */
class Node
{
  public:
    Node(machine::MachineConfig config, std::vector<ColocatedApp> apps);

    const machine::MachineConfig &config() const { return config_; }

    /** Number of colocated applications. */
    int numApps() const { return static_cast<int>(apps_.size()); }

    /** Profile of one application. */
    const apps::AppProfile &profile(machine::AppId id) const;

    /** Load fraction of one app at the given time (0 for BE). */
    double loadAt(machine::AppId id, double time_s) const;

    /** The colocated applications, in AppId order. */
    const std::vector<ColocatedApp> &apps() const { return apps_; }

    /** Ids of the LC applications. */
    const std::vector<machine::AppId> &lcApps() const { return lc; }

    /** Ids of the BE applications. */
    const std::vector<machine::AppId> &beApps() const { return be_; }

    /** Contention-model demands of every app at the given time. */
    std::vector<perf::AppDemand> demandsAt(double time_s) const;

    /**
     * As demandsAt(), but writing into @p demands so the per-epoch
     * simulation loop recycles one buffer.
     */
    void demandsAt(double time_s,
                   std::vector<perf::AppDemand> &demands) const;

    /**
     * Observation skeletons with the static fields (id, kind,
     * threads, threshold, solo IPC) filled in; measurements zeroed.
     */
    std::vector<sched::AppObservation> staticObservations() const;

    /**
     * Compact colocation summary for reports and trace events,
     * e.g. "xapian+moses|be:sphinx" (LC apps, then BE apps).
     */
    std::string describe() const;

  private:
    machine::MachineConfig config_;
    std::vector<ColocatedApp> apps_;
    std::vector<machine::AppId> lc;
    std::vector<machine::AppId> be_;
};

} // namespace ahq::cluster

#endif // AHQ_CLUSTER_NODE_HH
