/**
 * @file
 * Experiment harness implementation.
 */

#include "experiment/harness.hh"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>

#include "core/entropy.hh"
#include "exec/jobs.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "obs/trace_sink.hh"
#include "sched/registry.hh"

namespace ahq::experiment
{

namespace
{

/** The Fleet per-node seed salting, reused verbatim. */
std::uint64_t
nodeSeed(std::uint64_t base, std::size_t node)
{
    return base + 0x9e37 * (node + 1);
}

} // namespace

std::vector<BlockStat>
extractBlocks(const cluster::SimulationResult &res,
              const ExperimentDesign &design, int node)
{
    const auto arms = nodeBlockArms(design, node);
    const auto block_epochs =
        static_cast<std::size_t>(design.blockEpochs);
    std::vector<BlockStat> out;
    out.reserve(arms.size());

    for (std::size_t b = 0; b < arms.size(); ++b) {
        const std::size_t first = b * block_epochs;
        const std::size_t last = std::min(
            first + block_epochs, res.epochs.size());
        if (first >= last)
            break;

        BlockStat s;
        s.node = node;
        s.block = static_cast<int>(b);
        s.arm = arms[b];
        s.epochs = static_cast<int>(last - first);

        // The congestion this block inherited: total LC backlog at
        // the end of the previous block (a fresh node starts dry).
        if (first > 0) {
            const auto &prev = res.epochs[first - 1];
            for (std::size_t i = 0;
                 i < prev.queueBacklog.size(); ++i)
                if (prev.obs[i].latencyCritical)
                    s.startQueue += prev.queueBacklog[i];
        }

        double p95_sum = 0.0;
        long long lc_samples = 0;
        long long viols = 0;
        for (std::size_t e = first; e < last; ++e) {
            const auto &rec = res.epochs[e];
            s.meanES += rec.entropy.eS;
            for (std::size_t i = 0; i < rec.obs.size(); ++i) {
                const auto &o = rec.obs[i];
                if (!o.latencyCritical)
                    continue;
                p95_sum += o.p95Ms;
                ++lc_samples;
                s.meanQueue += rec.queueBacklog[i];
                s.meanArrivalRate += o.arrivalRate;
                viols += core::violatesQos(o.p95Ms, o.thresholdMs);
            }
        }
        const auto epochs = static_cast<double>(s.epochs);
        s.meanES /= epochs;
        s.meanQueue /= epochs;
        s.meanArrivalRate /= epochs;
        if (lc_samples > 0) {
            s.meanP95Ms =
                p95_sum / static_cast<double>(lc_samples);
            s.violRate = static_cast<double>(viols) /
                static_cast<double>(lc_samples);
        }
        out.push_back(s);
    }
    return out;
}

ExperimentResult
runExperiment(const ExperimentRunConfig &config,
              exec::ThreadPool *pool)
{
    const ExperimentDesign &design = config.design;
    validateDesign(design);

    ExperimentResult out;
    out.design = design;

    const obs::Scope &scope = config.base.obs;
    const bool tracing = scope.tracing();
    if (tracing) {
        obs::Event ev("experiment_start");
        ev.str("design", designKindName(design.kind))
            .str("arm_a", design.armA)
            .str("arm_b", design.armB)
            .integer("nodes", design.numNodes)
            .integer("blocks_per_node", design.blocksPerNode)
            .integer("block_epochs", design.blockEpochs)
            .integer("seed",
                     static_cast<long long>(design.seed));
        scope.emit(ev);
    }

    trace::FleetLoadConfig load = config.load;
    load.numNodes = design.numNodes;
    const trace::FleetLoadGenerator gen(load);

    const auto nn = static_cast<std::size_t>(design.numNodes);
    std::vector<obs::BufferTraceSink> buffers(tracing ? nn : 0);
    std::vector<std::vector<BlockStat>> node_blocks(nn);

    exec::ThreadPool &p = pool ? *pool : exec::globalPool();
    // Each task touches only its own node: its scheduler
    // instances, trace buffer and block slot.
    exec::parallelFor(p, nn, [&](std::size_t n) {
        cluster::SimulationConfig per_node = config.base;
        per_node.seed = nodeSeed(config.base.seed, n);
        per_node.durationSeconds =
            static_cast<double>(design.epochsPerNode()) *
            per_node.epochSeconds;
        per_node.warmupEpochs = 0;
        per_node.keepEpochs = true;
        if (tracing || scope.series != nullptr) {
            per_node.obs = scope.tagged(
                (scope.scenario.empty()
                     ? "node" + std::to_string(n)
                     : scope.scenario + "/node" +
                           std::to_string(n)));
            if (tracing)
                per_node.obs.sink = &buffers[n];
        }

        const auto a = sched::makeScheduler(design.armA);
        const auto b = sched::makeScheduler(design.armB);
        cluster::Node node(config.machine,
                           cluster::fleetNodeApps(
                               gen, static_cast<int>(n)));
        cluster::EpochSimulator sim(std::move(node), per_node);
        const auto res = sim.runSwitched(
            {a.get(), b.get()},
            nodeSchedule(design, static_cast<int>(n)));
        node_blocks[n] =
            extractBlocks(res, design, static_cast<int>(n));
    });

    // Trace buffers replay in node order: experiment traces are
    // byte-identical at any --jobs.
    if (tracing)
        for (auto &b : buffers)
            b.flushTo(*scope.sink);

    for (std::size_t n = 0; n < nn; ++n) {
        const auto arms =
            nodeBlockArms(design, static_cast<int>(n));
        for (std::size_t b = 1; b < arms.size(); ++b)
            if (arms[b] != arms[b - 1])
                ++out.policySwaps;
        for (const auto &s : node_blocks[n]) {
            if (tracing) {
                obs::Event ev("experiment_block");
                ev.integer("node", s.node)
                    .integer("block", s.block)
                    .integer("arm", s.arm)
                    .integer("epochs", s.epochs)
                    .num("mean_es", s.meanES)
                    .num("mean_p95_ms", s.meanP95Ms)
                    .num("mean_queue", s.meanQueue)
                    .num("mean_arrival", s.meanArrivalRate)
                    .num("start_queue", s.startQueue)
                    .num("viol_rate", s.violRate);
                scope.emit(ev);
            }
            out.blocks.push_back(s);
        }
    }

    out.estimates = estimate(out.blocks, config.estimator);
    out.verdict = verdictOf(out.estimates);

    if (tracing) {
        const auto &e = out.estimates;
        const auto ci = [](obs::Event &ev, const char *prefix,
                           const stats::ConfidenceInterval &c) {
            ev.num(std::string(prefix) + "_est", c.estimate)
                .num(std::string(prefix) + "_lo", c.lo)
                .num(std::string(prefix) + "_hi", c.hi);
        };
        obs::Event ev("experiment_end");
        ev.str("verdict", verdictName(out.verdict))
            .integer("blocks_a", e.blocksA)
            .integer("blocks_b", e.blocksB)
            .integer("policy_swaps", out.policySwaps)
            .num("alpha_es", e.es.alpha);
        ci(ev, "es_naive", e.es.naive);
        ci(ev, "es_dq", e.es.dq);
        ci(ev, "es_mixed", e.es.mixed);
        ci(ev, "p95_naive", e.p95Ms.naive);
        ci(ev, "p95_dq", e.p95Ms.dq);
        ci(ev, "p95_mixed", e.p95Ms.mixed);
        ci(ev, "viol_naive", e.violations.naive);
        ci(ev, "viol_dq", e.violations.dq);
        ci(ev, "viol_mixed", e.violations.mixed);
        scope.emit(ev);
    }
    scope.count("experiment.blocks",
                static_cast<double>(out.blocks.size()));
    scope.count("experiment.policy_swaps", out.policySwaps);

    return out;
}

} // namespace ahq::experiment
