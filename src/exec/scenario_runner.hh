/**
 * @file
 * Batch scenario execution: fan a vector of (strategy, node,
 * config) jobs across the thread pool and collect the simulation
 * results in job order.
 *
 * Determinism contract: each job owns its SimulationConfig::seed
 * and gets a fresh scheduler instance, so the result vector is
 * bitwise identical whether the batch runs on 1 or N threads (the
 * tests/exec determinism suite asserts this field by field).
 */

#ifndef AHQ_EXEC_SCENARIO_RUNNER_HH
#define AHQ_EXEC_SCENARIO_RUNNER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/epoch_sim.hh"
#include "obs/scope.hh"
#include "sched/scheduler.hh"

namespace ahq::exec
{

class ThreadPool;

/** One unit of batch work. */
struct ScenarioJob
{
    /** Strategy name (resolved through the sched registry). */
    std::string strategy;

    /** The colocation to simulate. */
    cluster::Node node;

    /** Simulation settings, including the job's own seed. */
    cluster::SimulationConfig config;

    /**
     * Scenario id stamped into trace events (defaults to the
     * strategy name when empty), under the runner scope's own
     * scenario when it has one. Tag jobs when a batch runs the same
     * strategy more than once.
     */
    std::string tag;
};

/**
 * Runs batches of independent scenario simulations in parallel.
 */
class ScenarioRunner
{
  public:
    /** Name -> fresh scheduler; must be callable concurrently. */
    using SchedulerFactory =
        std::function<std::unique_ptr<sched::Scheduler>(
            const std::string &)>;

    /**
     * @param pool Pool to fan out on; nullptr = globalPool().
     * @param factory Strategy factory; default is the sched
     *        registry (sched::makeScheduler).
     */
    explicit ScenarioRunner(ThreadPool *pool = nullptr,
                            SchedulerFactory factory = {});

    /**
     * Attach telemetry for subsequent batches. Each job runs as one
     * node of an exec::NodeFanOut: private trace buffer and span
     * profiler, flushed in job order after the batch, so the trace
     * bytes are identical at any thread count.
     */
    void setObsScope(obs::Scope scope) { obs_ = std::move(scope); }

    /** Run every job; results are in job order. */
    std::vector<cluster::SimulationResult>
    run(const std::vector<ScenarioJob> &jobs) const;

  private:
    ThreadPool *pool_;
    SchedulerFactory factory_;
    obs::Scope obs_;
};

/** Convenience: one batch on the global pool, registry factory. */
std::vector<cluster::SimulationResult>
runScenarios(const std::vector<ScenarioJob> &jobs);

} // namespace ahq::exec

#endif // AHQ_EXEC_SCENARIO_RUNNER_HH
