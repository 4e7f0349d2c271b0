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
    violations += res.violations;
    for (machine::AppId i = 0; i < node.numApps(); ++i) {
        const auto &p = node.profile(i);
        const auto ui = static_cast<std::size_t>(i);
        if (p.latencyCritical) {
            // Pool against the app's *steady-state* mean load:
            // meanP95Ms is a post-warmup aggregate, so its solo
            // reference must be too (a trace still ramping during
            // warmup would otherwise drag the reference below the
            // regime the steady tail was measured in).
            double mean_load = 0.0;
            if (ui < res.steadyMeanLoad.size()) {
                mean_load = res.steadyMeanLoad[ui];
            } else if (!res.epochs.empty()) {
                // Hand-built result without steadyMeanLoad: derive
                // it from the retained epochs, post-warmup only.
                double load_sum = 0.0;
                int steady = 0;
                for (std::size_t e = static_cast<std::size_t>(
                         std::max(res.warmupEpochs, 0));
                     e < res.epochs.size(); ++e) {
                    load_sum += res.epochs[e].obs[ui].loadFraction;
                    ++steady;
                }
                if (steady > 0)
                    mean_load =
                        load_sum / static_cast<double>(steady);
            }
            lc.push_back({p.soloTailP95Ms(mean_load),
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

core::EntropyReport
fleetEntropy(const std::vector<const Node *> &nodes,
             const std::vector<const SimulationResult *> &results,
             double ri)
{
    assert(nodes.size() == results.size());
    FleetAccumulator acc;
    for (std::size_t n = 0; n < nodes.size(); ++n)
        acc.add(*nodes[n], *results[n]);
    return acc.entropy(ri);
}

SimulationConfig
trialConfig(const SimulationConfig &base, double seconds,
            int warmup_epochs)
{
    SimulationConfig trial = base;
    trial.obs = {};
    trial.checkMode = check::Mode::Off;
    trial.faults = nullptr;
    trial.durationSeconds = seconds;
    trial.warmupEpochs = warmup_epochs;
    trial.keepEpochs = false;
    return trial;
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
    // included), result and accumulator slot.
    fan.run(
        p, entries.size(),
        [&](std::size_t n) {
            return "node" + std::to_string(id(n)) + tag_suffix;
        },
        [&](std::size_t n, const obs::Scope &scope) {
            SimulationConfig per_node = config;
            per_node.seed = exec::nodeSeed(config.seed, id(n), seed_salt);
            per_node.obs = scope;
            EpochSimulator sim(entries[n].node, per_node);
            out[n] = sim.run(*entries[n].scheduler);
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
    // (or without survivors to fail over to) the run takes the
    // exact single-phase path below, byte-identical to pre-fault
    // builds.
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

    if (!crashing) {
        // Node buffers flush in node order below, interleaved with
        // the fleet_node events.
        exec::NodeFanOut fan(scope);
        std::vector<FleetAccumulator> accums;
        runEntries(nodes_, config, fan, 0, "", nullptr, out.nodes,
                   accums, p);
        for (const auto &res : out.nodes) {
            out.violations += res.violations;
            out.attribution.merge(res.attribution);
            out.slo.merge(res.slo);
        }

        // Streaming reduce: the per-node accumulators built on the
        // pool merge in node order, so the pooled observation
        // sequence — and therefore the E_S bits — match the old
        // collect-then-reduce path at any thread count, without
        // the per-epoch records ever being required.
        const auto rep = [&] {
            obs::Span span(scope, "fleet.entropy");
            FleetAccumulator pooled;
            for (const auto &acc : accums)
                pooled.merge(acc);
            return pooled.entropy(config.ri);
        }();
        out.eLc = rep.eLc;
        out.eBe = rep.eBe;
        out.eS = rep.eS;
        out.yieldValue = rep.yieldValue;

        if (tracing) {
            for (std::size_t n = 0; n < nodes_.size(); ++n) {
                fan.flush(n);
                obs::Event ev("fleet_node");
                ev.integer("node", static_cast<long long>(n))
                    .str("colocation", nodes_[n].node.describe())
                    .str("scheduler", nodes_[n].scheduler->name())
                    .num("mean_e_s", out.nodes[n].meanES)
                    .integer("violations",
                             out.nodes[n].violations);
                scope.emit(ev);
            }
            obs::Event ev("fleet_end");
            ev.num("e_lc", out.eLc)
                .num("e_be", out.eBe)
                .num("e_s", out.eS)
                .num("yield", out.yieldValue)
                .integer("violations", out.violations);
            scope.emit(ev);
        }
        scope.count("fleet.runs");
        return out;
    }

    // ---- phase A: every node runs up to the crash instant --------
    const double ta = crash_epoch * config.epochSeconds;
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

    SimulationConfig cfg_a = config;
    cfg_a.durationSeconds = ta;
    exec::NodeFanOut fan_a(scope);
    std::vector<SimulationResult> res_a;
    std::vector<FleetAccumulator> acc_a;
    runEntries(nodes_, cfg_a, fan_a, 0, "", nullptr, res_a, acc_a, p);

    // ---- failover: re-place crashed apps onto the survivors ------
    std::vector<int> survivors;
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

    // Short, unfaulted, unaudited trial runs drive the placement;
    // the advisor itself is deterministic per (apps, config).
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

    // ---- phase B: survivors finish the run with the refugees -----
    std::vector<Entry> phase_b;
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
    exec::NodeFanOut fan_b(scope);
    std::vector<SimulationResult> res_b;
    std::vector<FleetAccumulator> acc_b;
    runEntries(phase_b, cfg_b, fan_b, kRecoverySeedSalt, "/recovered",
               &survivors, res_b, acc_b, p);

    // Crashed slots report their phase A segment; survivors report
    // the recovered segment they finished with — but their QoS
    // violations cover the whole run: a violation a survivor
    // incurred *before* the crash happened and must not vanish
    // from the fleet totals just because its slot was overwritten
    // with the phase B segment.
    out.nodes.resize(nodes_.size());
    for (int n : crashed)
        out.nodes[static_cast<std::size_t>(n)] = std::move(
            res_a[static_cast<std::size_t>(n)]);
    for (std::size_t s = 0; s < survivors.size(); ++s) {
        auto &slot =
            out.nodes[static_cast<std::size_t>(survivors[s])];
        slot = std::move(res_b[s]);
        const auto &before =
            res_a[static_cast<std::size_t>(survivors[s])];
        slot.violations += before.violations;
        // Same whole-run accounting for the blame ledger and the
        // alert tallies: attribution a survivor accumulated before
        // the crash stays in the fleet totals.
        slot.attribution.merge(before.attribution);
        slot.slo.merge(before.slo);
    }
    for (const auto &res : out.nodes) {
        out.violations += res.violations;
        out.attribution.merge(res.attribution);
        out.slo.merge(res.slo);
    }

    // The datacenter entropy describes the post-recovery fleet:
    // merge the phase B accumulators in node order.
    const auto rep = [&] {
        obs::Span span(scope, "fleet.entropy");
        FleetAccumulator pooled;
        for (const auto &acc : acc_b)
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
            const bool survived = !std::binary_search(
                crashed.begin(), crashed.end(),
                static_cast<int>(n));
            if (survived)
                fan_b.flush(s);
            obs::Event ev("fleet_node");
            ev.integer("node", static_cast<long long>(n))
                .str("colocation",
                     survived ? phase_b[s].node.describe()
                              : nodes_[n].node.describe())
                .str("scheduler",
                     survived ? phase_b[s].scheduler->name()
                              : nodes_[n].scheduler->name())
                .num("mean_e_s", out.nodes[n].meanES)
                .integer("violations", out.nodes[n].violations)
                .str("status", survived ? "recovered" : "crashed");
            scope.emit(ev);
            if (survived)
                ++s;
        }
        obs::Event ev("fleet_end");
        ev.num("e_lc", out.eLc)
            .num("e_be", out.eBe)
            .num("e_s", out.eS)
            .num("yield", out.yieldValue)
            .integer("violations", out.violations)
            .integer("failovers", out.failovers);
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

    auto node_entropy = [&](const std::vector<ColocatedApp> &set) {
        if (set.empty())
            return 0.0;
        Node node(nodeConfig, set);
        EpochSimulator sim(node, trial_config);
        const auto sched = makeScheduler();
        return sim.run(*sched).meanES;
    };

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
                trial_es[n] = node_entropy(trial);
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
            placement.nodeEntropy[n] = node_entropy(per_node[n]);
        });

    double sum = 0.0;
    for (double e : placement.nodeEntropy)
        sum += e;
    placement.meanEntropy = sum / numNodes_;
    return placement;
}

} // namespace ahq::cluster
