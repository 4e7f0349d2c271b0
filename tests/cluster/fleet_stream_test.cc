/**
 * @file
 * Tests for the streaming fleet aggregation and the three
 * fleet-accounting fixes: warmup-polluted load pooling, vanishing
 * survivor violations, and stale placement entropy.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "apps/catalog.hh"
#include "cluster/cluster_sched.hh"
#include "cluster/fleet.hh"
#include "exec/thread_pool.hh"
#include "fault/plan.hh"
#include "obs/trace_sink.hh"
#include "sched/arq.hh"
#include "sched/registry.hh"
#include "sched/unmanaged.hh"
#include "trace/fleet_load.hh"
#include "trace/load_trace.hh"

namespace
{

using namespace ahq;
using namespace ahq::cluster;

SimulationConfig
quick()
{
    SimulationConfig c;
    c.durationSeconds = 30.0;
    c.warmupEpochs = 30;
    return c;
}

/**
 * The solo-tail reference of a pooled LC app must be evaluated at
 * its steady-state mean load, not the whole-run mean. The trace
 * ramps only during warmup (0.9 before the 15 s warmup boundary,
 * 0.3 after), so pooling over all epochs would evaluate the solo
 * tail at ~0.6 — a regime the steady state never saw.
 */
TEST(FleetStream, WarmupExcludedFromPooledLoad)
{
    auto ramp = std::make_shared<trace::StepTrace>(
        std::vector<std::pair<double, double>>{{0.0, 0.9},
                                               {15.0, 0.3}});
    Node node(machine::MachineConfig::xeonE52630v4(),
              {lcWith(apps::xapian(), ramp),
               be(apps::fluidanimate())});
    sched::Arq s;
    const auto res = EpochSimulator(node, quick()).run(s);

    // The simulator's own steady-state load must see only the
    // post-warmup plateau.
    ASSERT_EQ(res.steadyMeanLoad.size(), 2u);
    EXPECT_NEAR(res.steadyMeanLoad[0], 0.3, 1e-12);

    FleetAccumulator acc;
    acc.add(node, res);
    const auto rep = acc.entropy();
    const auto manual = core::computeEntropy(
        {{node.profile(0).soloTailPercentileMs(0.3, 0.95), res.meanP95Ms[0],
          node.profile(0).tailThresholdMs}},
        {{node.profile(1).ipcSolo, res.meanIpc[1]}});
    EXPECT_NEAR(rep.eS, manual.eS, 1e-9);
    EXPECT_NEAR(rep.meanTolerance, manual.meanTolerance, 1e-9);
    EXPECT_NEAR(rep.meanInterference, manual.meanInterference,
                1e-9);

    // The pre-fix reference (whole-run mean load ~0.6) is visibly
    // wrong: the tolerance/interference breakdown anchors on the
    // solo tail, and solo(0.6) != solo(0.3).
    const auto polluted = core::computeEntropy(
        {{node.profile(0).soloTailPercentileMs(0.6, 0.95), res.meanP95Ms[0],
          node.profile(0).tailThresholdMs}},
        {{node.profile(1).ipcSolo, res.meanIpc[1]}});
    EXPECT_GT(std::abs(rep.meanTolerance - polluted.meanTolerance),
              1e-6);
}

/**
 * keepEpochs=false must change only what is retained: every
 * steady-state aggregate — and the pooled fleet entropy bits —
 * stay identical, while the per-epoch records are dropped.
 */
TEST(FleetStream, StreamingMatchesCollect)
{
    auto make = [] {
        Fleet fleet;
        fleet.addNode(Node(machine::MachineConfig::xeonE52630v4(),
                           {lcAt(apps::xapian(), 0.5),
                            lcAt(apps::moses(), 0.2),
                            be(apps::stream())}),
                      sched::makeScheduler("ARQ"));
        fleet.addNode(Node(machine::MachineConfig::xeonE52630v4(),
                           {lcAt(apps::sphinx(), 0.4),
                            be(apps::fluidanimate())}),
                      sched::makeScheduler("ARQ"));
        return fleet;
    };
    SimulationConfig keep = quick();
    SimulationConfig stream_cfg = quick();
    stream_cfg.keepEpochs = false;

    auto f1 = make();
    auto f2 = make();
    const auto collected = f1.run(keep);
    const auto streamed = f2.run(stream_cfg);

    EXPECT_EQ(collected.eS, streamed.eS);
    EXPECT_EQ(collected.eLc, streamed.eLc);
    EXPECT_EQ(collected.eBe, streamed.eBe);
    EXPECT_EQ(collected.yieldValue, streamed.yieldValue);
    EXPECT_EQ(collected.violations, streamed.violations);
    ASSERT_EQ(collected.nodes.size(), streamed.nodes.size());
    for (std::size_t n = 0; n < collected.nodes.size(); ++n) {
        EXPECT_FALSE(collected.nodes[n].epochs.empty());
        EXPECT_TRUE(streamed.nodes[n].epochs.empty());
        EXPECT_EQ(collected.nodes[n].meanES,
                  streamed.nodes[n].meanES);
        EXPECT_EQ(collected.nodes[n].violations,
                  streamed.nodes[n].violations);
    }
}

/**
 * A survivor's pre-crash QoS violations must not vanish when its
 * result slot is overwritten with the recovered segment. Node 0
 * (the survivor) runs overloaded the whole time; the crash lands
 * near the end, so almost all of its violations are phase A.
 */
TEST(FleetStream, SurvivorViolationsIncludePreCrash)
{
    const auto mc = machine::MachineConfig::xeonE52630v4()
                        .withAvailable(4, 8, 4);
    auto survivor_apps = [] {
        return std::vector<ColocatedApp>{lcAt(apps::xapian(), 0.9),
                                         be(apps::stream()),
                                         be(apps::stream())};
    };
    SimulationConfig cfg;
    cfg.durationSeconds = 30.0;
    cfg.warmupEpochs = 5;

    std::istringstream directives(
        R"({"fault":"node_crash","node":1,"at_s":28})"); // epoch 56 of 60
    const auto plan = fault::FaultPlan::fromStream(directives, "crash");
    cfg.faults = &plan;

    Fleet fleet;
    fleet.addNode(Node(mc, survivor_apps()),
                  sched::makeScheduler("ARQ"));
    fleet.addNode(Node(mc, {lcAt(apps::moses(), 0.2)}),
                  sched::makeScheduler("ARQ"));
    const auto res = fleet.run(cfg);
    ASSERT_EQ(res.crashedNodes, std::vector<int>{1});

    // Reproduce the survivor's phase A standalone: same node,
    // same derived seed (node 0, salt 0), duration cut at the
    // crash instant.
    SimulationConfig cfg_a = cfg;
    cfg_a.faults = nullptr;
    cfg_a.durationSeconds = 28.0;
    cfg_a.seed = cfg.seed + 0x9e37 * 1;
    Node standalone(mc, survivor_apps());
    const auto sched = sched::makeScheduler("ARQ");
    const auto phase_a =
        EpochSimulator(standalone, cfg_a).run(*sched);
    ASSERT_GT(phase_a.violations, 10)
        << "test premise: the survivor must violate before the "
           "crash";

    // The survivor's slot (and the fleet total) must cover both
    // phases; before the fix it held only the ~2 s phase B tail.
    EXPECT_GE(res.nodes[0].violations, phase_a.violations);
    EXPECT_GE(res.violations, res.nodes[0].violations);
}

/**
 * Placement must report the final entropy of every node — nodes
 * that carry initial apps but win no refugee reported 0.0 before
 * the fix, skewing meanEntropy.
 */
TEST(FleetStream, PlacementEntropyCoversAllNodes)
{
    PlacementAdvisor advisor(
        machine::MachineConfig::xeonE52630v4(), 3,
        [] { return std::make_unique<sched::Unmanaged>(); });
    // Three occupied nodes, one refugee: at least two nodes end
    // the greedy loop untouched. Each initial colocation carries a
    // BE app, so its true entropy is nonzero — exactly what the
    // untouched nodes used to report as 0.0.
    const std::vector<std::vector<ColocatedApp>> initial{
        {lcAt(apps::xapian(), 0.5), be(apps::stream())},
        {lcAt(apps::moses(), 0.5), be(apps::stream())},
        {lcAt(apps::sphinx(), 0.5), be(apps::stream())}};
    SimulationConfig trial;
    trial.durationSeconds = 10.0;
    trial.warmupEpochs = 10;
    const auto placement = advisor.place(
        {be(apps::fluidanimate())}, trial, nullptr, &initial);

    ASSERT_EQ(placement.nodeEntropy.size(), 3u);
    double sum = 0.0;
    for (double e : placement.nodeEntropy) {
        EXPECT_GT(e, 0.0) << "an occupied node reported zero "
                             "entropy";
        sum += e;
    }
    EXPECT_DOUBLE_EQ(placement.meanEntropy, sum / 3.0);
}

/**
 * 256-node streaming run: traces and the pooled E_S bits are
 * byte-identical at 1, 4 and 16 worker threads.
 */
TEST(FleetStream, FleetScaleDeterminismAcrossJobs)
{
    trace::FleetLoadConfig lc;
    lc.numNodes = 256;
    const trace::FleetLoadGenerator gen(lc);
    const auto mc = machine::MachineConfig::xeonE52630v4();

    std::string ref_trace;
    double ref_es = 0.0;
    bool first = true;
    for (int threads : {1, 4, 16}) {
        exec::ThreadPool pool(threads);
        Fleet fleet;
        for (int n = 0; n < lc.numNodes; ++n) {
            fleet.addNode(Node(mc, fleetNodeApps(gen, n)),
                          sched::makeScheduler("ARQ"));
        }
        obs::BufferTraceSink sink;
        SimulationConfig cfg;
        cfg.durationSeconds = 5.0;
        cfg.warmupEpochs = 3;
        cfg.keepEpochs = false;
        cfg.obs.sink = &sink;
        cfg.obs.scenario = "fleet";
        const auto res = fleet.run(cfg, &pool);
        if (first) {
            ref_trace = sink.str();
            ref_es = res.eS;
            first = false;
            EXPECT_FALSE(ref_trace.empty());
        } else {
            EXPECT_EQ(sink.str(), ref_trace)
                << "trace differs at " << threads << " threads";
            EXPECT_EQ(std::memcmp(&ref_es, &res.eS,
                                  sizeof(double)),
                      0)
                << "pooled E_S bits differ at " << threads
                << " threads";
        }
    }
}

} // namespace
