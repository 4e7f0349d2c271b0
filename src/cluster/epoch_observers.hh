/**
 * @file
 * The epoch simulator's run state and its observers (internal).
 *
 * The core step (epoch_sim.cc) advances an EpochState: decide,
 * contention model, queues, entropy. Attribution, audits, time
 * series, `epoch` trace events, SLO alerts and retained records are
 * EpochObservers reading that state const, in trace-emission order.
 * An unused seam adds no observer, so all unused seams together cost
 * one empty-list branch per hook.
 */

#ifndef AHQ_CLUSTER_EPOCH_OBSERVERS_HH
#define AHQ_CLUSTER_EPOCH_OBSERVERS_HH

#include <memory>
#include <vector>

#include "cluster/epoch_sim.hh"

namespace ahq::cluster::detail
{

/** Per-run state; the per-app buffers are sized once per run. */
struct EpochState
{
    int epoch = 0;
    double time = 0.0;
    bool traced = false; // this epoch's trace events are kept
    bool steady = false; // post-warmup: counts toward the aggregates
    int arm = 0;
    int dropped = 0; // samples the fault injector dropped
    machine::RegionLayout layout{machine::ResourceVector{}};
    perf::CoreSharePolicy policy{};
    std::vector<perf::AppDemand> demands;
    std::vector<perf::PerfOutcome> outcomes;
    core::EntropyReport entropy;
    std::vector<sched::AppObservation> obsBuf[2]; // by epoch parity
    std::vector<double> backlog; // end-of-epoch queue (0 for BE)
    std::vector<int> ways, cores; // reachable; -1 before epoch 0

    const std::vector<sched::AppObservation> &obs() const
    {
        return obsBuf[epoch & 1];
    }
};

/** A read-only consumer of the core step; hooks run in list order. */
class EpochObserver
{
  public:
    EpochObserver(const SimulationConfig &cfg, const Node &node,
                  SimulationResult &res)
        : cfg_(cfg), node_(node), res_(res) {}
    EpochObserver(const EpochObserver &) = delete;
    EpochObserver &operator=(const EpochObserver &) = delete;
    virtual ~EpochObserver() = default;

    /** The initial layout is in place, before epoch 0. */
    virtual void start(const EpochState &) {}

    /** A policy swap installed `incoming` at the epoch's head. */
    virtual void swapped(const EpochState &, const sched::Scheduler &) {}

    /** After Scheduler::adjust(), on possibly stale inputs. */
    virtual void decided(const EpochState &, const sched::Scheduler &,
                         const machine::RegionLayout & /*intent*/,
                         bool /*degraded_inputs*/) {}

    /** Fault runs: what the knob writes applied of the intent. */
    virtual void actuated(const EpochState &,
                          const machine::RegionLayout & /*intent*/,
                          const machine::RegionLayout & /*applied*/,
                          bool /*ok*/) {}

    virtual void observe(const EpochState &s) = 0;

    /** After the last epoch, before `run_end`. */
    virtual void finish() {}

  protected:
    const SimulationConfig &cfg_;
    const Node &node_;
    SimulationResult &res_; // where observers fold their totals
};

using ObserverList = std::vector<std::unique_ptr<EpochObserver>>;

/**
 * The observers `cfg` asks for, in trace-emission order: attribution,
 * audit, series, epoch trace, SLO, records. `res` outlives the list.
 */
ObserverList makeObservers(const SimulationConfig &cfg,
                           const Node &node, int epochs,
                           SimulationResult &res);

} // namespace ahq::cluster::detail

#endif // AHQ_CLUSTER_EPOCH_OBSERVERS_HH
