/**
 * @file
 * ScenarioRunner implementation.
 */

#include "exec/scenario_runner.hh"

#include <chrono>

#include "exec/fan_out.hh"
#include "exec/jobs.hh"
#include "obs/span.hh"
#include "sched/registry.hh"

namespace ahq::exec
{

ScenarioRunner::ScenarioRunner(ThreadPool *pool) : pool_(pool) {}

std::vector<cluster::SimulationResult>
ScenarioRunner::run(const std::vector<ScenarioJob> &jobs) const
{
    // Each job runs as one node of a fan-out: it traces into a
    // private buffer and profiles into a private SpanProfiler, and
    // the buffers (span events included) flush in job order, so the
    // trace is byte-identical at any thread count. Metrics go
    // straight to the shared registry — counter and histogram
    // updates commute.
    std::vector<cluster::SimulationResult> results(jobs.size());
    auto run_job = [&](std::size_t i, const obs::Scope &scope) {
        const ScenarioJob &job = jobs[i];
        const auto start = std::chrono::steady_clock::now();
        if (scope.tracing()) {
            obs::Event ev("scenario_start");
            ev.str("scheduler", job.strategy)
                .str("node", job.node.describe())
                .integer("job", static_cast<long long>(i));
            scope.emit(ev);
        }

        const auto sched = sched::makeScheduler(job.strategy);
        cluster::SimulationConfig cfg = job.config;
        cfg.obs = scope;
        {
            obs::Span span(scope, "exec.scenario");
            cluster::EpochSimulator sim(job.node, cfg);
            results[i] = sim.run(*sched);
        }

        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (scope.tracing()) {
            obs::Event ev("scenario_end");
            ev.str("scheduler", job.strategy)
                .num("mean_e_s", results[i].meanES)
                .num("yield", results[i].yieldValue);
            // Wall time is opt-in: it varies run to run and would
            // break trace reproducibility.
            if (scope.wallClock)
                ev.num("wall_ms", wall_ms);
            scope.emit(ev);
        }
        scope.count("exec.scenarios");
        scope.observe("exec.scenario_wall_ms", wall_ms);
    };
    NodeFanOut fan(obs_);
    fan.run(
        pool_ ? *pool_ : globalPool(), jobs.size(),
        [&](std::size_t i) {
            return jobs[i].tag.empty() ? jobs[i].strategy : jobs[i].tag;
        },
        [&](std::size_t first, std::span<const obs::Scope> scopes) {
            // A group's jobs run one after another, so each job's
            // span, events and wall time stay its own.
            for (std::size_t k = 0; k < scopes.size(); ++k)
                run_job(first + k, scopes[k]);
        });
    fan.flushAll();
    return results;
}

} // namespace ahq::exec
