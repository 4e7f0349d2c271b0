/**
 * @file
 * Fleet and placement advisor implementation.
 */

#include "cluster/fleet.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "exec/fan_out.hh"
#include "exec/jobs.hh"
#include "exec/parallel.hh"
#include "obs/span.hh"
#include "sched/registry.hh"

namespace ahq::cluster
{

namespace
{

/** Seed salt decorrelating post-failover (phase B) RNG streams. */
constexpr std::uint64_t kRecoverySeedSalt = 0xb10c5;

} // namespace

void
Fleet::addNode(Node node, std::unique_ptr<sched::Scheduler> scheduler)
{
    assert(scheduler != nullptr);
    nodes_.push_back({std::move(node), std::move(scheduler)});
}

void
FleetAccumulator::add(const Node &node, const SimulationResult &res)
{
    assert(res.steadyMeanLoad.size() ==
           static_cast<std::size_t>(node.numApps()));
    violations += res.violations;
    for (machine::AppId i = 0; i < node.numApps(); ++i) {
        const auto &p = node.profile(i);
        const auto ui = static_cast<std::size_t>(i);
        if (p.latencyCritical) {
            // Pool against the app's solo tail at the run's
            // percentile and *steady-state* mean load: meanP95Ms is
            // a post-warmup aggregate at res.tailPercentile, so its
            // solo reference must be too (a trace still ramping
            // during warmup would otherwise drag the reference below
            // the regime the steady tail was measured in).
            lc.push_back({p.soloTailPercentileMs(res.steadyMeanLoad[ui],
                                                 res.tailPercentile),
                          res.meanP95Ms[ui], p.tailThresholdMs});
        } else {
            be.push_back({p.ipcSolo, res.meanIpc[ui]});
        }
    }
}

void
FleetAccumulator::merge(const FleetAccumulator &other)
{
    lc.insert(lc.end(), other.lc.begin(), other.lc.end());
    be.insert(be.end(), other.be.begin(), other.be.end());
    violations += other.violations;
}

core::EntropyReport
FleetAccumulator::entropy(double ri) const
{
    return core::computeEntropy(lc, be, ri);
}

SimulationConfig
trialConfig(const SimulationConfig &base, double seconds,
            int warmup_epochs)
{
    SimulationConfig trial = base;
    trial.obs = {};
    trial.checkMode = check::Mode::Off;
    trial.faults = nullptr;
    trial.attribute = false;
    trial.slo = false;
    trial.durationSeconds = seconds;
    trial.warmupEpochs = warmup_epochs;
    trial.keepEpochs = false;
    return trial;
}

double
trialEntropy(const machine::MachineConfig &config,
             const std::vector<ColocatedApp> &apps,
             const SimulationConfig &trial,
             const std::function<std::unique_ptr<sched::Scheduler>()>
                 &make_scheduler)
{
    if (apps.empty())
        return 0.0;
    const auto sched = make_scheduler();
    return EpochSimulator(Node(config, apps), trial).run(*sched).meanES;
}

void
Fleet::runEntries(std::vector<Entry> &entries,
                  const SimulationConfig &config, exec::NodeFanOut &fan,
                  std::uint64_t seed_salt, const char *tag_suffix,
                  const std::vector<int> *ids,
                  std::vector<SimulationResult> &out,
                  std::vector<FleetAccumulator> &accums,
                  exec::ThreadPool &p)
{
    out.resize(entries.size());
    accums.assign(entries.size(), {});
    const auto id = [&](std::size_t n) {
        return ids != nullptr ? static_cast<std::size_t>((*ids)[n]) : n;
    };
    // Each node touches only its own entry (its scheduler instance
    // included), result and accumulator slot; a group's nodes step
    // in lock-step.
    fan.run(
        p, entries.size(),
        [&](std::size_t n) {
            return "node" + std::to_string(id(n)) + tag_suffix;
        },
        [&](std::size_t first, std::span<const obs::Scope> scopes) {
            const std::size_t count = scopes.size();
            std::vector<EpochSimulator> sims;
            std::vector<sched::Scheduler *> arms;
            std::vector<GroupRun> group;
            sims.reserve(count);
            arms.reserve(count);
            for (std::size_t k = 0; k < count; ++k) {
                const std::size_t n = first + k;
                SimulationConfig per_node = config;
                per_node.seed =
                    exec::nodeSeed(config.seed, id(n), seed_salt);
                per_node.obs = scopes[k];
                sims.emplace_back(entries[n].node, per_node);
                arms.push_back(entries[n].scheduler.get());
                group.push_back({&sims[k], {&arms[k], 1}, nullptr, &out[n]});
            }
            EpochSimulator::runGroup(group);
            for (std::size_t n = first; n < first + count; ++n)
                accums[n].add(entries[n].node, out[n]);
        });
}

Fleet::FleetResult
Fleet::run(const SimulationConfig &config, exec::ThreadPool *pool)
{
    FleetResult out;

    const obs::Scope &scope = config.obs;
    const bool tracing = scope.tracing();
    if (tracing) {
        obs::Event ev("fleet_start");
        ev.integer("nodes", numNodes())
            .integer("seed", static_cast<long long>(config.seed));
        scope.emit(ev);
    }
    exec::ThreadPool &p = pool ? *pool : exec::globalPool();

    // Fleet-level fault handling: node_crash directives coalesce to
    // the earliest crash epoch; every crashed node stops there and
    // its apps fail over to the survivors. Without valid crashes
    // (or without survivors to fail over to) phase A covers the
    // whole run and there is no placement and no phase B, so the
    // run is byte-identical to an unfaulted one.
    const int total_epochs = static_cast<int>(
        std::round(config.durationSeconds / config.epochSeconds));
    std::vector<int> crashed;
    int crash_epoch = 0;
    if (config.faults != nullptr && total_epochs >= 2) {
        double crash_at = config.durationSeconds;
        for (const auto &c : config.faults->crashes()) {
            if (c.node < 0 || c.node >= numNodes() ||
                c.atS >= config.durationSeconds)
                continue;
            crash_at = std::min(crash_at, c.atS);
            if (std::find(crashed.begin(), crashed.end(),
                          c.node) == crashed.end())
                crashed.push_back(c.node);
        }
        std::sort(crashed.begin(), crashed.end());
        crash_epoch = std::clamp(
            static_cast<int>(crash_at / config.epochSeconds), 1,
            total_epochs - 1);
    }
    const bool crashing = !crashed.empty() &&
        static_cast<int>(crashed.size()) < numNodes();

    // ---- phase A: every node runs to the crash instant (or to the
    // end of a run without one) -----------------------------------
    const double ta = crashing ? crash_epoch * config.epochSeconds
                               : config.durationSeconds;
    if (crashing) {
        out.crashedNodes = crashed;
        for (int n : crashed) {
            scope.count("fault.node_crash");
            if (tracing) {
                obs::Event ev("fault");
                ev.str("fault", "node_crash")
                    .integer("node", n)
                    .num("t", ta);
                scope.emit(ev);
            }
        }
    }

    // Node buffers flush in node order below, interleaved with the
    // fleet_node events. Crashed slots keep their phase A result.
    SimulationConfig cfg_a = config;
    cfg_a.durationSeconds = ta;
    exec::NodeFanOut fan_a(scope);
    std::vector<FleetAccumulator> acc_a;
    runEntries(nodes_, cfg_a, fan_a, 0, "", nullptr, out.nodes, acc_a,
               p);

    std::vector<int> survivors;
    std::vector<Entry> phase_b;
    exec::NodeFanOut fan_b(scope);
    std::vector<FleetAccumulator> acc_b;
    if (crashing) {
        // ---- failover: re-place crashed apps onto the survivors --
        for (int n = 0; n < numNodes(); ++n) {
            if (!std::binary_search(crashed.begin(), crashed.end(), n))
                survivors.push_back(n);
        }
        std::vector<ColocatedApp> refugees;
        for (int n : crashed) {
            for (const auto &a :
                 nodes_[static_cast<std::size_t>(n)].node.apps())
                refugees.push_back(a);
        }
        std::vector<std::vector<ColocatedApp>> initial;
        for (int n : survivors) {
            initial.push_back(
                nodes_[static_cast<std::size_t>(n)].node.apps());
        }

        // Short, unfaulted, unaudited trial runs drive the
        // placement; the advisor itself is deterministic per (apps,
        // config).
        const SimulationConfig trial =
            trialConfig(config, 8.0 * config.epochSeconds, 2);

        const auto &first =
            nodes_[static_cast<std::size_t>(survivors.front())];
        const std::string strategy = first.scheduler->name();
        PlacementAdvisor advisor(
            first.node.config(), static_cast<int>(survivors.size()),
            [strategy] { return sched::makeScheduler(strategy); });
        // The trial scope is stripped (trial.obs = {}), so no trial
        // simulation records spans — the placement search appears as
        // one caller-side span and the node bodies stay span-free,
        // keeping paths independent of which thread ran which trial.
        const auto placement = [&] {
            obs::Span span(scope, "fleet.place");
            return advisor.place(refugees, trial, &p, &initial);
        }();

        for (std::size_t r = 0; r < refugees.size(); ++r)
            scope.count("recovery.failover");
        out.failovers = static_cast<int>(refugees.size());
        if (tracing) {
            obs::Event ev("recovery");
            ev.str("what", "failover")
                .integer("apps", out.failovers)
                .num("t", ta);
            scope.emit(ev);
        }

        // ---- phase B: survivors finish the run with the refugees -
        for (std::size_t s = 0; s < survivors.size(); ++s) {
            auto apps = initial[s];
            for (std::size_t r = 0; r < refugees.size(); ++r) {
                if (placement.assignment[r] == static_cast<int>(s))
                    apps.push_back(refugees[r]);
            }
            auto &entry =
                nodes_[static_cast<std::size_t>(survivors[s])];
            phase_b.push_back({Node(entry.node.config(),
                                    std::move(apps)),
                               std::move(entry.scheduler)});
        }

        SimulationConfig cfg_b = config;
        cfg_b.durationSeconds = config.durationSeconds - ta;
        cfg_b.warmupEpochs =
            std::max(0, config.warmupEpochs - crash_epoch);
        std::vector<SimulationResult> res_b;
        runEntries(phase_b, cfg_b, fan_b, kRecoverySeedSalt,
                   "/recovered", &survivors, res_b, acc_b, p);

        // Survivors report the recovered segment they finished with
        // — but their QoS violations cover the whole run: a
        // violation a survivor incurred *before* the crash happened
        // and must not vanish from the fleet totals just because its
        // slot now holds the phase B segment. Same whole-run
        // accounting for the blame ledger and the alert tallies.
        for (std::size_t s = 0; s < survivors.size(); ++s) {
            auto &slot =
                out.nodes[static_cast<std::size_t>(survivors[s])];
            std::swap(slot, res_b[s]);
            const SimulationResult &before = res_b[s];
            slot.violations += before.violations;
            slot.attribution.merge(before.attribution);
            slot.slo.merge(before.slo);
        }
    }

    for (const auto &res : out.nodes) {
        out.violations += res.violations;
        out.attribution.merge(res.attribution);
        out.slo.merge(res.slo);
    }

    // Streaming reduce: the per-node accumulators built on the pool
    // merge in node order, so the pooled observation sequence — and
    // therefore the E_S bits — are the same at any thread count,
    // without the per-epoch records ever being required. After a
    // crash the datacenter entropy describes the post-recovery
    // fleet: the phase B accumulators.
    const auto rep = [&] {
        obs::Span span(scope, "fleet.entropy");
        FleetAccumulator pooled;
        for (const auto &acc : crashing ? acc_b : acc_a)
            pooled.merge(acc);
        return pooled.entropy(config.ri);
    }();
    out.eLc = rep.eLc;
    out.eBe = rep.eBe;
    out.eS = rep.eS;
    out.yieldValue = rep.yieldValue;

    if (tracing) {
        std::size_t s = 0;
        for (std::size_t n = 0; n < nodes_.size(); ++n) {
            fan_a.flush(n);
            const bool survived = crashing &&
                !std::binary_search(crashed.begin(), crashed.end(),
                                    static_cast<int>(n));
            if (survived)
                fan_b.flush(s);
            const Entry &entry = survived ? phase_b[s] : nodes_[n];
            obs::Event ev("fleet_node");
            ev.integer("node", static_cast<long long>(n))
                .str("colocation", entry.node.describe())
                .str("scheduler", entry.scheduler->name())
                .num("mean_e_s", out.nodes[n].meanES)
                .integer("violations", out.nodes[n].violations);
            if (crashing)
                ev.str("status", survived ? "recovered" : "crashed");
            scope.emit(ev);
            if (survived)
                ++s;
        }
        obs::Event ev("fleet_end");
        ev.num("e_lc", out.eLc)
            .num("e_be", out.eBe)
            .num("e_s", out.eS)
            .num("yield", out.yieldValue)
            .integer("violations", out.violations);
        if (crashing)
            ev.integer("failovers", out.failovers);
        scope.emit(ev);
    }

    // Hand the survivors' schedulers back so the Fleet stays
    // reusable for another run.
    for (std::size_t s = 0; s < survivors.size(); ++s) {
        nodes_[static_cast<std::size_t>(survivors[s])].scheduler =
            std::move(phase_b[s].scheduler);
    }
    scope.count("fleet.runs");
    return out;
}

PlacementAdvisor::PlacementAdvisor(
    machine::MachineConfig node_config, int num_nodes,
    std::function<std::unique_ptr<sched::Scheduler>()> make_scheduler)
    : nodeConfig(std::move(node_config)), numNodes_(num_nodes),
      makeScheduler(std::move(make_scheduler))
{
    assert(num_nodes >= 1);
    assert(makeScheduler != nullptr);
}

PlacementAdvisor::Placement
PlacementAdvisor::place(
    const std::vector<ColocatedApp> &apps,
    const SimulationConfig &trial_config, exec::ThreadPool *pool,
    const std::vector<std::vector<ColocatedApp>> *initial) const
{
    // Hungriest first: LC apps by mean core demand at their initial
    // load, then BE apps by thread count.
    std::vector<std::size_t> order(apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i)
        order[i] = i;
    auto hunger = [&](std::size_t i) {
        const auto &a = apps[i];
        if (a.profile.latencyCritical) {
            const double load = a.load ? a.load->at(0.0) : 0.0;
            return a.profile.arrivalRate(load) *
                a.profile.serviceTimeMs / 1000.0;
        }
        return static_cast<double>(a.profile.threads);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return hunger(a) > hunger(b);
                     });

    std::vector<std::vector<ColocatedApp>> per_node(
        static_cast<std::size_t>(numNodes_));
    if (initial != nullptr) {
        assert(static_cast<int>(initial->size()) == numNodes_);
        per_node = *initial;
    }
    Placement placement;
    placement.assignment.assign(apps.size(), -1);
    placement.nodeEntropy.assign(
        static_cast<std::size_t>(numNodes_), 0.0);

    exec::ThreadPool &p = pool ? *pool : exec::globalPool();
    std::vector<double> trial_es(
        static_cast<std::size_t>(numNodes_), 0.0);
    for (std::size_t oi : order) {
        // Trial-simulate the app on every candidate node in
        // parallel; the argmin below scans in node order with
        // strict <, matching the serial greedy choice exactly.
        exec::parallelFor(
            p, static_cast<std::size_t>(numNodes_),
            [&](std::size_t n) {
                auto trial = per_node[n];
                trial.push_back(apps[oi]);
                trial_es[n] = trialEntropy(nodeConfig, trial,
                                           trial_config, makeScheduler);
            });
        int best_node = 0;
        double best_es = std::numeric_limits<double>::infinity();
        for (int n = 0; n < numNodes_; ++n) {
            const double es =
                trial_es[static_cast<std::size_t>(n)];
            if (es < best_es) {
                best_es = es;
                best_node = n;
            }
        }
        per_node[static_cast<std::size_t>(best_node)].push_back(
            apps[oi]);
        placement.assignment[oi] = best_node;
    }

    // Report the entropy of the *final* colocation on every node —
    // including nodes that won no assignment but carry `initial`
    // apps, and winners whose mid-greedy trial value went stale as
    // later apps joined them. Empty nodes report 0.
    exec::parallelFor(
        p, static_cast<std::size_t>(numNodes_), [&](std::size_t n) {
            placement.nodeEntropy[n] = trialEntropy(
                nodeConfig, per_node[n], trial_config, makeScheduler);
        });

    double sum = 0.0;
    for (double e : placement.nodeEntropy)
        sum += e;
    placement.meanEntropy = sum / numNodes_;
    return placement;
}

} // namespace ahq::cluster
