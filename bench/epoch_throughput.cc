/**
 * @file
 * Fast perf-trajectory anchor (not a paper figure): epoch-loop
 * throughput of the canonical 4-app colocation under every
 * registered strategy (and CLITE over 3600 epochs, where a decision
 * cost that grows with run length would show), with each
 * observability seam on (profiler, trace sink + metrics, audit
 * log, fault injection), larger-node
 * variants (8 and 32 colocated apps — where the GP window cap and
 * the O(n²) incremental Cholesky keep CLITE's decision cost flat),
 * a small Fleet run, and the online hot paths a controller runs
 * inside one epoch (entropy, M/M/c percentiles, the contention
 * model on a memo hit, on a miss and on a lock-step group of four
 * nodes' misses, attribution's counterfactuals, GP fit + EI).
 * Every row is timed in one interleaved sampleInterleaved() run.
 * With --json it writes BENCH_epoch_throughput.json — the file the
 * repo commits as the baseline `ahq bench-diff` compares future
 * revisions against (see EXPERIMENTS.md).
 */

#include <iostream>

#include "check/check.hh"
#include "cluster/cluster_sched.hh"
#include "cluster/fleet.hh"
#include "common.hh"
#include "core/entropy.hh"
#include "fault/plan.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/timeseries.hh"
#include "obs/trace_sink.hh"
#include "perf/contention.hh"
#include "perf/queueing.hh"
#include "sched/gp.hh"
#include "sched/registry.hh"
#include "stats/rng.hh"
#include "trace/fleet_load.hh"

using namespace ahq;
using namespace ahq::bench;

namespace
{

/** Fig. 12's 6 LC + 2 BE colocation. */
cluster::Node
eightAppNode()
{
    return cluster::Node(
        machine::MachineConfig::xeonE52630v4(),
        {cluster::lcAt(apps::moses(), 0.2),
         cluster::lcAt(apps::xapian(), 0.2),
         cluster::lcAt(apps::imgDnn(), 0.2),
         cluster::lcAt(apps::sphinx(), 0.2),
         cluster::lcAt(apps::masstree(), 0.2),
         cluster::lcAt(apps::silo(), 0.2),
         cluster::be(apps::fluidanimate()),
         cluster::be(apps::streamcluster())});
}

/**
 * A deliberately over-colocated 32-app node (8 LC + 24 BE) on the
 * larger Gold 6248 so per-group resource minimums stay feasible.
 * Not a paper scenario — a stress row for the trajectory.
 */
cluster::Node
thirtyTwoAppNode()
{
    std::vector<cluster::ColocatedApp> colocated;
    const double load = 0.15;
    colocated.push_back(cluster::lcAt(apps::moses(), load));
    colocated.push_back(cluster::lcAt(apps::xapian(), load));
    colocated.push_back(cluster::lcAt(apps::imgDnn(), load));
    colocated.push_back(cluster::lcAt(apps::sphinx(), load));
    colocated.push_back(cluster::lcAt(apps::masstree(), load));
    colocated.push_back(cluster::lcAt(apps::silo(), load));
    colocated.push_back(cluster::lcAt(apps::moses(), 2 * load));
    colocated.push_back(cluster::lcAt(apps::xapian(), 2 * load));
    for (int i = 0; i < 8; ++i) {
        colocated.push_back(cluster::be(apps::fluidanimate()));
        colocated.push_back(cluster::be(apps::streamcluster()));
        colocated.push_back(cluster::be(apps::stream()));
    }
    return cluster::Node(machine::MachineConfig::xeonGold6248(),
                         std::move(colocated));
}

} // namespace

int
main(int argc, char **argv)
{
    BenchJsonWriter json(
        parseBenchArgs(argc, argv, "epoch_throughput"));

    report::heading(std::cout,
                    "Epoch-loop throughput (canonical 4-app node, "
                    "30 simulated seconds) and the online hot "
                    "paths");

    const auto node = canonicalNode(0.5, 0.2, 0.2, apps::stream());
    cluster::SimulationConfig cfg = standardConfig();
    cfg.durationSeconds = 30.0;
    cfg.warmupEpochs = 0;
    const double epochs = cfg.durationSeconds / cfg.epochSeconds;

    std::vector<Row> rows;
    auto sim = [&](const std::string &name, const cluster::Node &n,
                   const cluster::SimulationConfig &c,
                   const std::string &strategy,
                   const std::string &config,
                   std::function<void()> after = {}) {
        rows.push_back(
            {name, c.durationSeconds / c.epochSeconds, "epochs/s",
             config, [&n, &c, strategy, after] {
                 keep(runScenario(strategy, n, c).meanES);
                 if (after)
                     after();
             }});
    };

    // Every registered strategy (the registry's presentation
    // order), not just the headline five.
    for (const auto &strategy : sched::allStrategyNames())
        sim(strategy, node, cfg, strategy, "epochs=60 " + strategy);

    // CLITE over a long run: a decision whose cost grows with the
    // run's length (a sample history rescanned every interval)
    // shows here, not in the 60-epoch row.
    cluster::SimulationConfig clite_cfg = cfg;
    clite_cfg.durationSeconds = 1800.0;
    sim("CLITE@3600", node, clite_cfg, "CLITE", "epochs=3600 CLITE");

    // Each observability seam switched on, on the same workload:
    // the span profiler (epoch phases + scheduler steps), a live
    // trace sink with a metrics registry, the invariant audit log
    // and the builtin chaos fault plan. Unused, a seam attaches no
    // observer at all (DESIGN.md §12); these rows price using it.
    cluster::SimulationConfig prof_cfg = cfg;
    obs::SpanProfiler prof;
    prof_cfg.obs.prof = &prof;
    sim("ARQ+profiler", node, prof_cfg, "ARQ",
        "epochs=60 ARQ profile=1");

    cluster::SimulationConfig trace_cfg = cfg;
    obs::BufferTraceSink trace_sink;
    obs::MetricsRegistry trace_metrics;
    trace_cfg.obs.sink = &trace_sink;
    trace_cfg.obs.metrics = &trace_metrics;
    trace_cfg.obs.scenario = "ARQ";
    sim("ARQ+trace", node, trace_cfg, "ARQ",
        "epochs=60 ARQ trace_sample=1 metrics=1",
        [&] { trace_sink.clear(); });

    cluster::SimulationConfig audit_cfg = cfg;
    audit_cfg.checkMode = check::Mode::Log;
    sim("ARQ+audit", node, audit_cfg, "ARQ", "epochs=60 ARQ check=log");

    cluster::SimulationConfig fault_cfg = cfg;
    const auto chaos = fault::FaultPlan::builtinChaos();
    fault_cfg.faults = &chaos;
    sim("ARQ+faults", node, fault_cfg, "ARQ",
        "epochs=60 ARQ faults=builtin-chaos");

    // Telemetry variants on a 600-epoch run (telemetry's per-run
    // costs — run_start, series handle setup, the final flush —
    // are fixed, so the overhead claim is about the steady state),
    // reported against plain ARQ at 600 epochs:
    //   off-path  sink attached, sampling rejects every epoch, no
    //             series registry: the shape a fleet node is in
    //             when it loses the sampling draw.
    //   on-path   series registry recording every epoch plus
    //             head-based sampling keeping 5% of trace events —
    //             the production shape for sampled fleet runs.
    cluster::SimulationConfig long_cfg = cfg;
    long_cfg.durationSeconds = 300.0;
    const std::size_t plain600 = rows.size();
    sim("ARQ@600", node, long_cfg, "ARQ", "epochs=600 ARQ");

    obs::BufferTraceSink off_sink;
    cluster::SimulationConfig off_cfg = long_cfg;
    off_cfg.obs.sink = &off_sink;
    off_cfg.obs.scenario = "ARQ";
    off_cfg.traceSampleRate = 0.0;
    sim("ARQ+trace-off", node, off_cfg, "ARQ",
        "epochs=600 ARQ trace_sample=0 series=0",
        [&] { off_sink.clear(); });

    obs::BufferTraceSink ts_sink;
    obs::TimeSeriesRegistry ts_registry;
    cluster::SimulationConfig ts_cfg = long_cfg;
    ts_cfg.obs.sink = &ts_sink;
    ts_cfg.obs.scenario = "ARQ";
    ts_cfg.obs.series = &ts_registry;
    ts_cfg.traceSampleRate = 0.05;
    sim("ARQ+timeseries", node, ts_cfg, "ARQ",
        "epochs=600 ARQ trace_sample=0.05 series=1", [&] {
            ts_sink.clear();
            ts_registry.clear();
        });

    // Larger colocations: the decision loops that scale with app
    // count (CLITE's GP over groups x kinds, ARQ's ReT array, the
    // contention fixed point) against 2x and 8x the canonical node.
    const auto node8 = eightAppNode();
    const auto node32 = thirtyTwoAppNode();
    for (const auto &strategy :
         {std::string("Unmanaged"), std::string("CLITE"),
          std::string("ARQ")}) {
        sim(strategy + "@8apps", node8, cfg, strategy,
            "epochs=60 apps=8 " + strategy);
        sim(strategy + "@32apps", node32, cfg, strategy,
            "epochs=60 apps=32 " + strategy);
    }

    // A small fleet: 4 canonical nodes under ARQ, epochs counted
    // across all nodes (runs on the global pool, byte-identical at
    // any thread count).
    rows.push_back({"Fleet/ARQ x4", 4.0 * epochs, "epochs/s",
                    "epochs=60 nodes=4 ARQ", [&] {
                        cluster::Fleet fleet;
                        for (int i = 0; i < 4; ++i) {
                            fleet.addNode(node,
                                          sched::makeScheduler("ARQ"));
                        }
                        keep(fleet.run(cfg).eS);
                    }});

    // The online hot paths inside one epoch. Inputs live in the
    // closures, not in constants the compiler could fold.
    const std::vector<core::BeObservation> be_obs(2, {2.63, 1.5});
    for (const std::size_t n : {3u, 6u, 32u}) {
        rows.push_back(
            {"entropy@" + std::to_string(n) + "apps", 1.0, "evals/s",
             "lc=" + std::to_string(n) + " be=2",
             [lc = std::vector<core::LcObservation>(n, {2.77, 5.0, 4.22}),
              &be_obs] { keep(core::computeEntropy(lc, be_obs).eS); }});
    }

    double lambda = 3000.0;
    rows.push_back({"mmc_p95_exact", 1.0, "evals/s",
                    "c=4 lambda=3000 mu=1200", [&] {
                        keep(perf::mmcSojournPercentile(4.0, lambda,
                                                        1200.0, 0.95));
                    }});
    rows.push_back({"mmc_p95_approx", 1.0, "evals/s",
                    "c=4 lambda=3000 mu=1200 z=2.9", [&] {
                        keep(perf::sojournPercentileApprox(
                            4.0, lambda, 1200.0, 2.9));
                    }});

    const auto mc = machine::MachineConfig::xeonE52630v4();
    const perf::ContentionModel model(mc);
    const auto layout = machine::RegionLayout::arqInitial(
        mc.availableResources(), {0, 1, 2}, {3});
    const std::vector<perf::AppDemand> demands{
        apps::xapian().toDemand(0.5), apps::moses().toDemand(0.2),
        apps::imgDnn().toDemand(0.2), apps::stream().toDemand(0.0)};
    rows.push_back({"contention_eval", 1.0, "evals/s",
                    "canonical ARQ layout, repeated input (memo hit)",
                    [&] {
                        keep(model
                                 .evaluate(layout, demands,
                                           perf::CoreSharePolicy::
                                               LcPriority)[0]
                                 .serviceRate);
                    }});

    // The memo-miss regime: one fleet-shaped node's demands over a
    // 240 s diurnal period, cycled so that every call misses the
    // 64-entry memo. Its own model keeps the hit row's entry warm.
    const perf::ContentionModel miss_model(mc);
    const cluster::Node fleet_node(
        mc, cluster::fleetNodeApps(
                trace::FleetLoadGenerator(trace::FleetLoadConfig{}), 0));
    std::vector<machine::AppId> fleet_lc, fleet_be;
    for (int i = 0; i < fleet_node.numApps(); ++i) {
        (fleet_node.apps()[static_cast<std::size_t>(i)]
                 .profile.latencyCritical
             ? fleet_lc
             : fleet_be)
            .push_back(i);
    }
    const auto fleet_layout = machine::RegionLayout::arqInitial(
        mc.availableResources(), fleet_lc, fleet_be);
    std::vector<std::vector<perf::AppDemand>> diurnal(480);
    for (std::size_t k = 0; k < diurnal.size(); ++k)
        fleet_node.demandsAt(0.5 * static_cast<double>(k), diurnal[k]);
    std::size_t next_input = 0;
    std::vector<perf::PerfOutcome> miss_out;
    rows.push_back({"contention_eval_miss", 1.0, "evals/s",
                    "fleet-shaped ARQ layout, 480 diurnal inputs "
                    "cycled (memo miss)",
                    [&] {
                        miss_model.evaluateInto(
                            fleet_layout, diurnal[next_input],
                            perf::CoreSharePolicy::LcPriority,
                            miss_out);
                        next_input = (next_input + 1) % diurnal.size();
                        keep(miss_out[0].serviceRate);
                    }});

    // The same regime as a lock-step group of four fleet nodes: nodes
    // 0-3, each with its own model and its own ARQ initial layout, one
    // batched call per group epoch, counted as four evaluations.
    constexpr std::size_t kGroup = 4;
    std::vector<perf::ContentionModel> group_models;
    std::vector<machine::RegionLayout> group_layouts;
    std::vector<std::vector<std::vector<perf::AppDemand>>> group_inputs(
        kGroup, std::vector<std::vector<perf::AppDemand>>(480));
    std::vector<std::vector<perf::PerfOutcome>> group_out(kGroup);
    const trace::FleetLoadGenerator group_gen{trace::FleetLoadConfig{}};
    for (std::size_t g = 0; g < kGroup; ++g) {
        const cluster::Node node(
            mc, cluster::fleetNodeApps(group_gen, static_cast<int>(g)));
        std::vector<machine::AppId> lc, be;
        for (int i = 0; i < node.numApps(); ++i) {
            (node.apps()[static_cast<std::size_t>(i)].profile.latencyCritical
                 ? lc
                 : be)
                .push_back(i);
        }
        group_models.emplace_back(mc);
        group_layouts.push_back(machine::RegionLayout::arqInitial(
            mc.availableResources(), lc, be));
        for (std::size_t k = 0; k < group_inputs[g].size(); ++k)
            node.demandsAt(0.5 * static_cast<double>(k), group_inputs[g][k]);
    }
    std::vector<perf::ContentionLane> group_lanes(kGroup);
    std::size_t next_group_input = 0;
    rows.push_back({"contention_eval_miss@4nodes", double(kGroup),
                    "evals/s",
                    "fleet nodes 0-3, own models and ARQ layouts, 480 "
                    "diurnal inputs cycled, one lock-step call per epoch",
                    [&] {
                        for (std::size_t g = 0; g < kGroup; ++g) {
                            group_lanes[g] = {
                                &group_models[g], &group_layouts[g],
                                &group_inputs[g][next_group_input],
                                perf::CoreSharePolicy::LcPriority,
                                &group_out[g]};
                        }
                        perf::ContentionModel::evaluateBatchInto(
                            group_lanes);
                        next_group_input =
                            (next_group_input + 1) % group_inputs[0].size();
                        keep(group_out[0][0].serviceRate);
                    }});

    // Attribution on the same inputs: every victim suffers, so each
    // call solves all n counterfactuals, and they miss the memo too.
    std::vector<std::vector<perf::PerfOutcome>> diurnal_base(diurnal.size());
    for (std::size_t k = 0; k < diurnal.size(); ++k) {
        miss_model.evaluateInto(fleet_layout, diurnal[k],
                                perf::CoreSharePolicy::LcPriority,
                                diurnal_base[k]);
    }
    std::vector<core::LcBreakdown> suffering(fleet_lc.size());
    for (core::LcBreakdown &b : suffering)
        b.interference = 0.3;
    obs::InterferenceAttributor attributor(mc);
    std::vector<obs::AttributionShare> shares;
    std::size_t next_attr = 0;
    rows.push_back({"attribute_miss", 1.0, "calls/s",
                    "attribute() on the miss row's inputs, every "
                    "victim R_i > 0 (all counterfactuals miss)",
                    [&] {
                        attributor.attribute(
                            fleet_layout, diurnal[next_attr],
                            perf::CoreSharePolicy::LcPriority,
                            diurnal_base[next_attr], fleet_lc, suffering,
                            shares);
                        next_attr = (next_attr + 1) % diurnal.size();
                        keep(shares.empty() ? 0.0 : shares[0].share);
                    }});

    for (const std::size_t n : {8u, 24u, 64u}) {
        stats::Rng rng(1);
        std::vector<std::vector<double>> xs;
        std::vector<double> ys;
        for (std::size_t i = 0; i < n; ++i) {
            xs.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
            ys.push_back(rng.normal(0.0, 1.0));
        }
        rows.push_back({"gp_fit_ei@" + std::to_string(n), 1.0, "fits/s",
                        "samples=" + std::to_string(n) + " dims=3",
                        [xs, ys] {
                            sched::GaussianProcess gp(0.35, 1.0, 0.01);
                            gp.fit(xs, ys);
                            keep(gp.expectedImprovement({0.5, 0.5, 0.5},
                                                        0.0));
                        }});
    }

    const std::vector<double> best = timeRows(rows, json);
    report::TextTable t({"workload", "per call (us)", "throughput"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
        t.addRow({rows[i].name, num(best[i] * 1e6),
                  num(rows[i].work / best[i], 0) + " " + rows[i].unit});
    }
    t.print(std::cout);
    const double off_pct =
        100.0 * (best[plain600 + 1] / best[plain600] - 1.0);
    std::cout << "off-path overhead (sampling rejects all) vs plain "
                 "ARQ @600 epochs: "
              << num(off_pct) << "% (budget: <2%)\n";
    if (off_pct >= 2.0)
        std::cout << "WARNING: off-path overhead exceeds the 2% "
                     "budget\n";
    std::cout << "on-path overhead (series + 5% sampling) vs plain "
                 "ARQ @600 epochs: "
              << num(100.0 * (best[plain600 + 2] / best[plain600] - 1.0))
              << "%\n";
    return 0;
}
