/**
 * @file
 * Lock-step groups (EpochSimulator::runGroup): every run of a group
 * leaves exactly what it leaves when it runs alone — result bits,
 * trace bytes, flushed series and counters — whatever its group
 * mates run.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <sstream>

#include "apps/catalog.hh"
#include "cluster/cluster_sched.hh"
#include "cluster/epoch_sim.hh"
#include "exec/fan_out.hh"
#include "fault/plan.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "obs/trace_sink.hh"
#include "sched/registry.hh"
#include "trace/fleet_load.hh"

namespace
{

using namespace ahq;
using namespace ahq::cluster;

/** One run of a group: its node, settings and strategies. */
struct Spec
{
    Node node;
    SimulationConfig cfg;
    std::vector<std::string> arms; // more than one: a switched run
    PolicySchedule schedule;
    bool telemetry = false; // own sink, metrics and series
};

/** What one run leaves behind. */
struct Outputs
{
    std::vector<std::uint64_t> bits;
    std::string trace, series, counters;
};

void
addBits(std::vector<std::uint64_t> &bits, double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    bits.push_back(b);
}

/** Every number a result carries, as bits (NaNs compare exactly). */
std::vector<std::uint64_t>
resultBits(const SimulationResult &res)
{
    std::vector<std::uint64_t> bits;
    for (const double v : {res.meanELc, res.meanEBe, res.meanES,
                           res.yieldValue, res.slo.worstBurn})
        addBits(bits, v);
    for (const long long v :
         {static_cast<long long>(res.warmupEpochs),
          static_cast<long long>(res.violations),
          static_cast<long long>(res.epochs.size()),
          static_cast<long long>(res.slo.raises),
          static_cast<long long>(res.slo.clears),
          static_cast<long long>(res.slo.alertEpochs)})
        bits.push_back(static_cast<std::uint64_t>(v));
    for (const auto *col :
         {&res.meanP95Ms, &res.meanIpc, &res.steadyMeanLoad}) {
        for (const double v : *col)
            addBits(bits, v);
    }
    for (const auto &row : res.attribution.rows()) {
        addBits(bits, row.share);
        bits.push_back(static_cast<std::uint64_t>(row.epochs));
    }
    for (const EpochRecord &rec : res.epochs) {
        addBits(bits, rec.entropy.eS);
        for (const auto &o : rec.outcomes)
            addBits(bits, o.speed);
        for (const double q : rec.queueBacklog)
            addBits(bits, q);
        bits.push_back(static_cast<std::uint64_t>(rec.policyArm));
    }
    return bits;
}

/** A run's schedulers, telemetry stores, simulator and result. */
struct Live
{
    std::vector<std::unique_ptr<sched::Scheduler>> scheds;
    std::vector<sched::Scheduler *> arms;
    obs::BufferTraceSink sink;
    obs::MetricsRegistry metrics;
    obs::TimeSeriesRegistry series;
    std::optional<EpochSimulator> sim;
    SimulationResult result;
};

/** Run the specs one by one, or as one lock-step group. */
std::vector<Outputs>
runAll(const std::vector<Spec> &specs, bool lockstep)
{
    std::vector<std::unique_ptr<Live>> live;
    for (std::size_t k = 0; k < specs.size(); ++k) {
        const Spec &spec = specs[k];
        auto l = std::make_unique<Live>();
        for (const std::string &name : spec.arms) {
            l->scheds.push_back(sched::makeScheduler(name));
            l->arms.push_back(l->scheds.back().get());
        }
        SimulationConfig cfg = spec.cfg;
        if (spec.telemetry) {
            cfg.obs.sink = &l->sink;
            cfg.obs.metrics = &l->metrics;
            cfg.obs.series = &l->series;
            cfg.obs.scenario = "node" + std::to_string(k);
        }
        l->sim.emplace(spec.node, cfg);
        live.push_back(std::move(l));
    }
    auto schedule = [&](std::size_t k) {
        return specs[k].arms.size() > 1 ? &specs[k].schedule : nullptr;
    };
    if (lockstep) {
        std::vector<GroupRun> group;
        for (std::size_t k = 0; k < live.size(); ++k) {
            group.push_back({&*live[k]->sim, live[k]->arms, schedule(k),
                             &live[k]->result});
        }
        EpochSimulator::runGroup(group);
    } else {
        for (std::size_t k = 0; k < live.size(); ++k) {
            Live &l = *live[k];
            l.result = schedule(k) != nullptr
                ? l.sim->runSwitched(l.arms, *schedule(k))
                : l.sim->run(*l.arms[0]);
        }
    }
    std::vector<Outputs> out;
    for (const auto &l : live) {
        Outputs o;
        o.bits = resultBits(l->result);
        o.trace = l->sink.str();
        obs::BufferTraceSink flushed;
        obs::Scope scope;
        scope.sink = &flushed;
        l->series.flush(scope);
        o.series = flushed.str();
        std::ostringstream counters;
        l->metrics.print(counters);
        o.counters = counters.str();
        out.push_back(std::move(o));
    }
    return out;
}

void
expectSameAsSolo(const std::vector<Spec> &specs, const std::string &what)
{
    const auto solo = runAll(specs, false);
    const auto group = runAll(specs, true);
    ASSERT_EQ(solo.size(), group.size());
    for (std::size_t k = 0; k < solo.size(); ++k) {
        EXPECT_EQ(group[k].bits, solo[k].bits) << what << " run " << k;
        EXPECT_EQ(group[k].trace, solo[k].trace) << what << " run " << k;
        EXPECT_EQ(group[k].series, solo[k].series) << what << " run " << k;
        EXPECT_EQ(group[k].counters, solo[k].counters)
            << what << " run " << k;
    }
}

/** Fleet-shaped nodes 0..n-1 and the canonical node. */
std::vector<Node>
testNodes(int n)
{
    trace::FleetLoadConfig load;
    load.numNodes = 8;
    load.seed = 42;
    const trace::FleetLoadGenerator gen(load);
    const auto mc = machine::MachineConfig::xeonE52630v4();
    std::vector<Node> nodes;
    for (int k = 0; k < n; ++k)
        nodes.emplace_back(mc, fleetNodeApps(gen, k));
    nodes.emplace_back(mc, std::vector<ColocatedApp>{
                               lcAt(apps::xapian(), 0.5),
                               lcAt(apps::moses(), 0.2),
                               lcAt(apps::imgDnn(), 0.2),
                               be(apps::stream())});
    return nodes;
}

/** Four runs of `epochs` epochs, each with its own seed. */
std::vector<Spec>
fourRuns(const std::vector<Node> &nodes, int epochs,
         const std::vector<std::string> &strategies)
{
    std::vector<Spec> specs;
    for (std::size_t k = 0; k < 4; ++k) {
        Spec s{nodes[k], {}, {strategies[k % strategies.size()]}, {}};
        s.cfg.durationSeconds = epochs * s.cfg.epochSeconds;
        s.cfg.warmupEpochs = 5;
        s.cfg.checkMode = check::Mode::Off;
        s.cfg.seed = exec::nodeSeed(42, k);
        specs.push_back(std::move(s));
    }
    return specs;
}

TEST(Lockstep, GroupMatchesSoloRuns)
{
    const auto nodes = testNodes(4);

    // Every registered strategy, four nodes under it; then four
    // strategies side by side (both core-share policies and
    // different layout structures in one group).
    for (const std::string &s : sched::allStrategyNames())
        expectSameAsSolo(fourRuns(nodes, 60, {s}), s);
    expectSameAsSolo(
        fourRuns(nodes, 60, {"ARQ", "PARTIES", "CLITE", "Heracles"}),
        "mixed strategies");

    // The builtin chaos plan with audits logging.
    const fault::FaultPlan chaos = fault::FaultPlan::builtinChaos();
    auto specs = fourRuns(nodes, 80, {"ARQ", "PARTIES"});
    for (Spec &s : specs) {
        s.cfg.faults = &chaos;
        s.cfg.checkMode = check::Mode::Log;
        s.telemetry = true;
    }
    expectSameAsSolo(specs, "builtin chaos");

    // Every observability seam: attribution, SLO, audit log, series
    // and a 5%-sampled trace, with records kept.
    specs = fourRuns(nodes, 80, {"ARQ"});
    for (Spec &s : specs) {
        s.cfg.attribute = true;
        s.cfg.slo = true;
        s.cfg.checkMode = check::Mode::Log;
        s.cfg.traceSampleRate = 0.05;
        s.cfg.keepEpochs = true;
        s.telemetry = true;
    }
    expectSameAsSolo(specs, "seams");

    // Policy schedules: ARQ and PARTIES swapping blocks.
    specs = fourRuns(nodes, 60, {"ARQ"});
    for (std::size_t k = 0; k < specs.size(); ++k) {
        specs[k].arms = {"ARQ", "PARTIES"};
        specs[k].schedule.blockEpochs = 10;
        specs[k].schedule.blockArm = {0, 1, int(k % 2), 1, 0, 0};
        specs[k].telemetry = true;
    }
    expectSameAsSolo(specs, "policy schedule");

    // Unequal durations, the canonical node (memo hits) among them:
    // each run leaves the group when it ends.
    specs = fourRuns(nodes, 60, {"ARQ", "CLITE"});
    specs[1].node = nodes[4];
    const int epochs[] = {37, 60, 1, 12};
    for (std::size_t k = 0; k < specs.size(); ++k) {
        specs[k].cfg.durationSeconds = epochs[k] * specs[k].cfg.epochSeconds;
        specs[k].cfg.keepEpochs = true;
        specs[k].telemetry = true;
    }
    expectSameAsSolo(specs, "unequal durations");
}

} // namespace
