/**
 * @file
 * Fault-injection tests: plan parsing, injector determinism, the
 * simulator's degradation seams (stale samples, frozen knobs, load
 * spikes), the chaos fuzz sweep running every scheduler under the
 * strict invariant auditor with faults active, byte-identical
 * faulted traces at any thread count, and Fleet crash failover.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/catalog.hh"
#include "check/check.hh"
#include "cluster/epoch_sim.hh"
#include "cluster/fleet.hh"
#include "exec/scenario_runner.hh"
#include "exec/thread_pool.hh"
#include "fault/injector.hh"
#include "fault/plan.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace_sink.hh"
#include "sched/arq.hh"
#include "sched/registry.hh"
#include "stats/rng.hh"

namespace
{

using namespace ahq;

/** A plan from JSONL directives, the path `--faults` takes. */
fault::FaultPlan
planOf(const std::string &jsonl)
{
    std::istringstream in(jsonl);
    return fault::FaultPlan::fromStream(in, "test");
}

cluster::Node
canonicalNode()
{
    return cluster::Node(
        machine::MachineConfig::xeonE52630v4().withAvailable(6, 12,
                                                             6),
        {cluster::lcAt(apps::xapian(), 0.5),
         cluster::lcAt(apps::moses(), 0.2),
         cluster::be(apps::stream())});
}

/** Every epoch ran under the first epoch's region resources. */
void
expectLayoutFrozen(const cluster::SimulationResult &res)
{
    const auto &first = res.epochs.front().layout;
    for (const auto &rec : res.epochs) {
        ASSERT_EQ(rec.layout.numRegions(), first.numRegions());
        for (int r = 0; r < first.numRegions(); ++r)
            EXPECT_EQ(rec.layout.region(r).res, first.region(r).res);
    }
}

TEST(FaultPlan, ParsesEveryDirectiveKind)
{
    std::istringstream in(
        "# chaos plan\n"
        "\n"
        "{\"fault\":\"measurement\",\"p_drop\":0.1,"
        "\"extra_sigma\":0.05,\"apps\":[0,2]}\n"
        "{\"fault\":\"actuation\",\"p_fail\":0.2,"
        "\"mode\":\"partial\",\"retries\":3,"
        "\"p_retry_fail\":0.4}\n"
        "{\"fault\":\"load_spike\",\"app\":1,\"from_s\":2,"
        "\"until_s\":5,\"factor\":1.8}\n"
        "{\"fault\":\"node_crash\",\"node\":1,\"at_s\":4}\n");
    const auto plan = fault::FaultPlan::fromStream(in, "inline");

    EXPECT_TRUE(plan.perturbsNodes());
    ASSERT_TRUE(plan.measurement().has_value());
    EXPECT_NEAR(plan.measurement()->pDrop, 0.1, 1e-12);
    EXPECT_NEAR(plan.measurement()->extraSigma, 0.05, 1e-12);
    EXPECT_TRUE(plan.measurement()->appliesTo(0));
    EXPECT_FALSE(plan.measurement()->appliesTo(1));
    EXPECT_TRUE(plan.measurement()->appliesTo(2));

    ASSERT_TRUE(plan.actuation().has_value());
    EXPECT_NEAR(plan.actuation()->pFail, 0.2, 1e-12);
    EXPECT_EQ(plan.actuation()->mode,
              fault::ActuationFault::Mode::Partial);
    EXPECT_EQ(plan.actuation()->retries, 3);
    EXPECT_NEAR(plan.actuation()->pRetryFail, 0.4, 1e-12);

    ASSERT_EQ(plan.spikes().size(), 1u);
    EXPECT_EQ(plan.spikes()[0].app, 1);
    EXPECT_TRUE(plan.spikes()[0].activeAt(2.0));
    EXPECT_TRUE(plan.spikes()[0].activeAt(4.99));
    EXPECT_FALSE(plan.spikes()[0].activeAt(5.0));

    ASSERT_EQ(plan.crashes().size(), 1u);
    EXPECT_EQ(plan.crashes()[0].node, 1);
    EXPECT_NEAR(plan.crashes()[0].atS, 4.0, 1e-12);
}

TEST(FaultPlan, RejectsMalformedDirectives)
{
    auto reject = [](const std::string &text) {
        std::istringstream in(text);
        EXPECT_THROW(
            (void)fault::FaultPlan::fromStream(in, "bad"),
            std::runtime_error)
            << text;
    };
    reject("not json\n");
    reject("{\"type\":\"measurement\"}\n"); // missing 'fault' key
    reject("{\"fault\":\"quantum\"}\n");    // unknown kind
    reject("{\"fault\":\"measurement\",\"p_drop\":1.5}\n");
    reject("{\"fault\":\"measurement\",\"extra_sigma\":-1}\n");
    reject("{\"fault\":\"measurement\"}\n"
           "{\"fault\":\"measurement\"}\n"); // duplicate
    reject("{\"fault\":\"actuation\",\"mode\":\"maybe\"}\n");
    reject("{\"fault\":\"actuation\",\"retries\":-1}\n");
    reject("{\"fault\":\"load_spike\",\"app\":0,\"from_s\":5,"
           "\"until_s\":2,\"factor\":2}\n");
    reject("{\"fault\":\"load_spike\",\"app\":0,\"from_s\":0,"
           "\"until_s\":2,\"factor\":0}\n");
    reject("{\"fault\":\"node_crash\",\"node\":0,\"at_s\":-1}\n");
    EXPECT_THROW((void)fault::FaultPlan::fromFile(
                     "/tmp/ahq_no_such_plan.jsonl"),
                 std::runtime_error);
}

TEST(FaultPlan, OnlyPerNodeDirectivesPerturbNodes)
{
    EXPECT_FALSE(fault::FaultPlan{}.perturbsNodes());
    EXPECT_FALSE(planOf("# only comments\n\n").perturbsNodes());
    const auto chaos = fault::FaultPlan::builtinChaos();
    EXPECT_TRUE(chaos.perturbsNodes());
    EXPECT_TRUE(chaos.crashes().empty());
    // A crash is Fleet::run's to handle: no node's run is faulted.
    const auto crash =
        planOf(R"({"fault":"node_crash","node":1,"at_s":4})");
    EXPECT_FALSE(crash.perturbsNodes());
    EXPECT_EQ(crash.crashes().size(), 1u);
    for (const char *one :
         {R"({"fault":"measurement","p_drop":0.1})",
          R"({"fault":"actuation","p_fail":0.1})",
          R"({"fault":"load_spike","app":0,"from_s":1,"until_s":2,)"
          R"("factor":2})"})
        EXPECT_TRUE(planOf(one).perturbsNodes()) << one;
}

TEST(FaultInjector, DeterministicPerSeedAndPlan)
{
    const auto plan = fault::FaultPlan::builtinChaos();
    auto draw = [&](std::uint64_t seed) {
        fault::FaultInjector inj(plan, seed, {});
        std::vector<int> drops;
        std::vector<double> noise;
        for (int e = 0; e < 200; ++e) {
            inj.beginEpoch(e, e * 0.5);
            for (int app = 0; app < 3; ++app) {
                double mult = 1.0;
                drops.push_back(
                    inj.sampleMeasurement(app, e, e * 0.5, &mult)
                        ? 0
                        : 1);
                noise.push_back(mult);
            }
        }
        return std::make_pair(drops, noise);
    };

    const auto a = draw(42);
    const auto b = draw(42);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);

    // A different seed draws a different fault pattern.
    const auto c = draw(43);
    EXPECT_NE(a.first, c.first);

    // The plan is sampled at all: drops happened and survivors got
    // perturbed.
    int dropped = 0;
    for (int d : a.first)
        dropped += d;
    EXPECT_GT(dropped, 0);
    EXPECT_LT(dropped, static_cast<int>(a.first.size()));
}

TEST(FaultInjector, LoadFactorFollowsSpikes)
{
    const auto plan = planOf(
        R"({"fault":"load_spike","app":0,"from_s":3,"until_s":6,)"
        R"("factor":1.5})");
    fault::FaultInjector inj(plan, 1, {});
    EXPECT_NEAR(inj.loadFactor(0, 2.9), 1.0, 1e-12);
    EXPECT_NEAR(inj.loadFactor(0, 3.0), 1.5, 1e-12);
    EXPECT_NEAR(inj.loadFactor(0, 5.9), 1.5, 1e-12);
    EXPECT_NEAR(inj.loadFactor(0, 6.0), 1.0, 1e-12);
    EXPECT_NEAR(inj.loadFactor(1, 4.0), 1.0, 1e-12); // other app
}

TEST(EpochSimFaults, DroppedSamplesDeliverStaleObservations)
{
    const auto plan = planOf(R"({"fault":"measurement","p_drop":0.35})");

    obs::MetricsRegistry metrics;
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 30.0;
    cfg.warmupEpochs = 4;
    cfg.seed = 7;
    cfg.checkMode = check::Mode::Strict;
    cfg.faults = &plan;
    cfg.obs.metrics = &metrics;

    sched::Arq arq;
    const auto res =
        cluster::EpochSimulator(canonicalNode(), cfg).run(arq);

    int stale = 0;
    for (std::size_t e = 0; e < res.epochs.size(); ++e) {
        for (std::size_t a = 0; a < res.epochs[e].obs.size();
             ++a) {
            const auto &o = res.epochs[e].obs[a];
            if (o.sampleValid)
                continue;
            ++stale;
            if (e == 0)
                continue; // epoch-0 drops deliver solo defaults
            // A dropped sample repeats the previous delivery.
            const auto &prev = res.epochs[e - 1].obs[a];
            EXPECT_EQ(o.p95Ms, prev.p95Ms);
            EXPECT_EQ(o.ipc, prev.ipc);
        }
    }
    EXPECT_GT(stale, 0);
    EXPECT_EQ(metrics.counter("fault.measurement_drop"),
              static_cast<double>(stale));
}

TEST(EpochSimFaults, AllSamplesDroppedSkipsEveryDecision)
{
    const auto plan = planOf(R"({"fault":"measurement","p_drop":1})");

    obs::MetricsRegistry metrics;
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 20.0;
    cfg.warmupEpochs = 4;
    cfg.checkMode = check::Mode::Strict;
    cfg.faults = &plan;
    cfg.obs.metrics = &metrics;

    sched::Arq arq;
    const auto res =
        cluster::EpochSimulator(canonicalNode(), cfg).run(arq);

    // With every sample dropped the control loop must hold: no
    // decision ever fires, so the layout never moves.
    EXPECT_GT(metrics.counter("fault.decision_skipped"), 0.0);
    expectLayoutFrozen(res);
}

TEST(EpochSimFaults, NoopActuationFreezesLayoutUnderArq)
{
    const auto plan = planOf(
        R"({"fault":"actuation","p_fail":1,"mode":"noop","retries":0})");

    obs::MetricsRegistry metrics;
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 30.0;
    cfg.warmupEpochs = 4;
    cfg.checkMode = check::Mode::Strict;
    cfg.faults = &plan;
    cfg.obs.metrics = &metrics;

    sched::Arq arq;
    const auto res =
        cluster::EpochSimulator(canonicalNode(), cfg).run(arq);

    // Every attempted change was silently ignored, and the ARQ FSM
    // reconciled (no phantom rollbacks of never-applied moves — the
    // strict auditor would throw on arq.rollback_exact otherwise).
    EXPECT_GT(metrics.counter("fault.actuation_fail"), 0.0);
    EXPECT_GT(metrics.counter("arq.actuation_failed"), 0.0);
    expectLayoutFrozen(res);
}

TEST(EpochSimFaults, PartialActuationRetriesAndReconciles)
{
    const auto plan =
        planOf(R"({"fault":"actuation","p_fail":0.5,"mode":"partial",)"
               R"("retries":2,"p_retry_fail":0.5})");

    obs::MetricsRegistry metrics;
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 60.0;
    cfg.warmupEpochs = 4;
    cfg.seed = 11;
    cfg.checkMode = check::Mode::Strict; // fault.reconciled armed
    cfg.faults = &plan;
    cfg.obs.metrics = &metrics;

    sched::Arq arq;
    EXPECT_NO_THROW(
        cluster::EpochSimulator(canonicalNode(), cfg).run(arq));
    // Some first writes failed and at least one retry won.
    EXPECT_GT(metrics.counter("fault.actuation_fail") +
                  metrics.counter("recovery.actuation_retry"),
              0.0);
}

TEST(EpochSimFaults, LoadSpikeRaisesTailLatency)
{
    const auto plan = planOf(
        R"({"fault":"load_spike","app":0,"from_s":15,"until_s":45,)"
        R"("factor":2})");

    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 60.0;
    cfg.warmupEpochs = 0;
    cfg.faults = &plan;

    // Unmanaged so nothing adapts the allocation away.
    auto sched = sched::makeScheduler("Unmanaged");
    cluster::Node node(
        machine::MachineConfig::xeonE52630v4().withAvailable(6, 12,
                                                             6),
        {cluster::lcAt(apps::xapian(), 0.45),
         cluster::be(apps::stream())});
    const auto res = cluster::EpochSimulator(node, cfg).run(*sched);

    double in_spike = 0.0, outside = 0.0;
    int n_in = 0, n_out = 0;
    for (const auto &rec : res.epochs) {
        if (rec.time >= 15.0 && rec.time < 45.0) {
            in_spike += rec.obs[0].p95Ms;
            ++n_in;
        } else if (rec.time >= 2.0) { // skip cold start
            outside += rec.obs[0].p95Ms;
            ++n_out;
        }
    }
    ASSERT_GT(n_in, 0);
    ASSERT_GT(n_out, 0);
    EXPECT_GT(in_spike / n_in, 1.2 * (outside / n_out));
}

TEST(EpochSimFaults, InactivePlanMatchesFaultsOffBitForBit)
{
    cluster::SimulationConfig base;
    base.durationSeconds = 20.0;
    base.warmupEpochs = 4;
    base.seed = 99;

    sched::Arq a1, a2;
    const auto plain =
        cluster::EpochSimulator(canonicalNode(), base).run(a1);

    const fault::FaultPlan inactive; // no directives
    cluster::SimulationConfig faulted = base;
    faulted.faults = &inactive;
    const auto gated =
        cluster::EpochSimulator(canonicalNode(), faulted).run(a2);

    ASSERT_EQ(plain.epochs.size(), gated.epochs.size());
    EXPECT_EQ(plain.meanES, gated.meanES);
    for (std::size_t e = 0; e < plain.epochs.size(); ++e) {
        for (std::size_t i = 0; i < plain.epochs[e].obs.size();
             ++i) {
            EXPECT_EQ(plain.epochs[e].obs[i].p95Ms,
                      gated.epochs[e].obs[i].p95Ms);
        }
    }
}

TEST(ChaosFuzz, AllSchedulersSurviveStrictUnderFaults)
{
    const std::vector<std::string> lc_names{
        "xapian", "moses", "img-dnn", "masstree", "sphinx", "silo"};
    const std::vector<std::string> be_names{
        "fluidanimate", "streamcluster", "stream"};

    stats::Rng rng(24681357); // fixed seed: replayable sweep
    obs::MetricsRegistry metrics;
    const auto plan = fault::FaultPlan::builtinChaos();
    const auto &strategies = sched::allStrategyNames();
    ASSERT_GE(strategies.size(), 7u);

    int scenarios = 0;
    for (int trial = 0; trial < 16; ++trial) {
        const int n_lc = 1 + static_cast<int>(rng.uniformInt(3));
        const int n_be = static_cast<int>(rng.uniformInt(3));

        std::vector<cluster::ColocatedApp> colocated;
        for (int i = 0; i < n_lc; ++i) {
            colocated.push_back(cluster::lcAt(
                apps::byName(lc_names[rng.uniformInt(
                    lc_names.size())]),
                rng.uniform(0.05, 0.95)));
        }
        for (int i = 0; i < n_be; ++i) {
            colocated.push_back(cluster::be(apps::byName(
                be_names[rng.uniformInt(be_names.size())])));
        }

        const int apps_total = n_lc + n_be;
        const int cores = std::max(
            apps_total + 1,
            4 + static_cast<int>(rng.uniformInt(7)));
        const int ways = std::max(
            apps_total + 1,
            8 + static_cast<int>(rng.uniformInt(13)));
        const int bw = 4 + static_cast<int>(rng.uniformInt(7));
        cluster::Node node(
            machine::MachineConfig::xeonE52630v4().withAvailable(
                cores, ways, bw),
            colocated);

        cluster::SimulationConfig cfg;
        cfg.durationSeconds = 10.0;
        cfg.warmupEpochs = 4;
        cfg.seed = rng.uniformInt(1u << 30);
        cfg.checkMode = check::Mode::Strict;
        cfg.faults = &plan;
        cfg.obs.metrics = &metrics;

        for (const auto &name : strategies) {
            auto sched = sched::makeScheduler(name);
            cluster::EpochSimulator sim(node, cfg);
            try {
                sim.run(*sched);
            } catch (const check::InvariantViolation &e) {
                FAIL() << name << " violated "
                       << e.violation().check << " in trial "
                       << trial << " (epoch "
                       << e.violation().epoch << "): " << e.what();
            }
            ++scenarios;
        }
    }

    EXPECT_GE(scenarios, 112);
    EXPECT_EQ(metrics.counter("check.violations"), 0.0);
    // The plan actually bit: faults fired across the sweep.
    EXPECT_GT(metrics.counter("fault.measurement_drop"), 0.0);
    EXPECT_GT(metrics.counter("fault.actuation_fail"), 0.0);
}

TEST(ChaosFuzz, FaultedTracesByteIdenticalAtAnyThreadCount)
{
    const auto plan = fault::FaultPlan::builtinChaos();
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 10.0;
    cfg.warmupEpochs = 4;
    cfg.seed = 5;
    cfg.checkMode = check::Mode::Strict;
    cfg.faults = &plan;

    std::vector<exec::ScenarioJob> jobs;
    for (const auto &name : sched::allStrategyNames())
        jobs.push_back({name, canonicalNode(), cfg, name});

    auto run_with = [&](int threads) {
        exec::ThreadPool pool(threads);
        exec::ScenarioRunner runner(&pool);
        obs::BufferTraceSink sink;
        obs::Scope scope;
        scope.sink = &sink;
        runner.setObsScope(scope);
        const auto results = runner.run(jobs);
        return std::make_pair(sink.str(), results);
    };

    const auto serial = run_with(1);
    const auto wide = run_with(4);
    ASSERT_FALSE(serial.first.empty());
    EXPECT_EQ(serial.first, wide.first);
    ASSERT_EQ(serial.second.size(), wide.second.size());
    for (std::size_t i = 0; i < serial.second.size(); ++i)
        EXPECT_EQ(serial.second[i].meanES, wide.second[i].meanES);
    // The faulted trace carries schema-v1 fault events.
    EXPECT_NE(serial.first.find("\"type\":\"fault\""),
              std::string::npos);
}

TEST(ChaosFuzz, SampledFaultedTracesByteIdenticalAtAnyThreadCount)
{
    // The head-based sampler composes with fault injection: a
    // sampled chaos trace (epochs kept by the seeded per-epoch
    // draw, everything else muted) must still come out
    // byte-identical at any thread count, and must be a strict
    // subset of the unsampled run.
    const auto plan = fault::FaultPlan::builtinChaos();
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 10.0;
    cfg.warmupEpochs = 4;
    cfg.seed = 5;
    cfg.checkMode = check::Mode::Strict;
    cfg.faults = &plan;

    auto run_with = [&](int threads, double rate) {
        cluster::SimulationConfig c = cfg;
        c.traceSampleRate = rate;
        std::vector<exec::ScenarioJob> jobs;
        for (const auto &name : sched::allStrategyNames())
            jobs.push_back({name, canonicalNode(), c, name});
        exec::ThreadPool pool(threads);
        exec::ScenarioRunner runner(&pool);
        obs::BufferTraceSink sink;
        obs::Scope scope;
        scope.sink = &sink;
        runner.setObsScope(scope);
        runner.run(jobs);
        return sink.str();
    };

    const std::string serial = run_with(1, 0.3);
    const std::string wide = run_with(4, 0.3);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, wide);

    auto count_of = [](const std::string &trace,
                       const std::string &type) {
        const std::string needle = "\"type\":\"" + type + "\"";
        std::size_t n = 0;
        for (auto pos = trace.find(needle);
             pos != std::string::npos;
             pos = trace.find(needle, pos + needle.size()))
            ++n;
        return n;
    };
    const std::string full = run_with(1, 1.0);
    EXPECT_GT(count_of(serial, "epoch"), 0u);
    EXPECT_LT(count_of(serial, "epoch"),
              count_of(full, "epoch"));
    // Fault events ride the same per-epoch gate.
    EXPECT_LE(count_of(serial, "fault"),
              count_of(full, "fault"));
    // Every kept line also appears in the full trace: sampling
    // only mutes, it never rewrites (run_start's trace_sample
    // field is the single intended difference).
    std::istringstream kept(serial);
    std::string line;
    while (std::getline(kept, line)) {
        if (line.find("\"type\":\"run_start\"") !=
            std::string::npos)
            continue;
        EXPECT_NE(full.find(line), std::string::npos)
            << "sampled-only line: " << line;
    }
}

TEST(FleetFaults, NodeCrashFailsOverToSurvivors)
{
    const auto plan = planOf(R"({"fault":"node_crash","node":1,"at_s":10})");

    auto build = [] {
        cluster::Fleet fleet;
        fleet.addNode(
            cluster::Node(machine::MachineConfig::xeonE52630v4(),
                          {cluster::lcAt(apps::xapian(), 0.3),
                           cluster::be(apps::fluidanimate())}),
            std::make_unique<sched::Arq>());
        fleet.addNode(
            cluster::Node(machine::MachineConfig::xeonE52630v4(),
                          {cluster::lcAt(apps::moses(), 0.3),
                           cluster::be(apps::stream())}),
            std::make_unique<sched::Arq>());
        return fleet;
    };

    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 30.0;
    cfg.warmupEpochs = 5;
    cfg.faults = &plan;

    auto f1 = build();
    const auto res = f1.run(cfg);
    ASSERT_EQ(res.nodes.size(), 2u);
    EXPECT_EQ(res.crashedNodes, std::vector<int>{1});
    EXPECT_EQ(res.failovers, 2); // both of node 1's apps re-placed
    // The crashed node only has its pre-crash epochs.
    EXPECT_EQ(res.nodes[1].epochs.size(), 20u);
    EXPECT_GT(res.nodes[0].epochs.size(),
              res.nodes[1].epochs.size());
    EXPECT_GE(res.eS, 0.0);
    EXPECT_LE(res.eS, 1.0);

    // Crash handling is deterministic.
    auto f2 = build();
    const auto res2 = f2.run(cfg);
    EXPECT_EQ(res.eS, res2.eS);
    EXPECT_EQ(res.failovers, res2.failovers);
}

TEST(FleetFaults, NoCrashPlanLeavesFleetPathUntouched)
{
    const auto plan = planOf(R"({"fault":"measurement","p_drop":0.1})");

    cluster::Fleet fleet;
    fleet.addNode(
        cluster::Node(machine::MachineConfig::xeonE52630v4(),
                      {cluster::lcAt(apps::xapian(), 0.3),
                       cluster::be(apps::stream())}),
        std::make_unique<sched::Arq>());

    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 20.0;
    cfg.warmupEpochs = 5;
    cfg.faults = &plan;

    const auto res = fleet.run(cfg);
    ASSERT_EQ(res.nodes.size(), 1u);
    EXPECT_EQ(res.failovers, 0);
    EXPECT_TRUE(res.crashedNodes.empty());
}

/**
 * Crash plans that fail nothing over: every crash names a node
 * outside the fleet, lands at or after the end of the run, or every
 * node crashes. Each runs phase A over the whole run with no
 * placement and no phase B, and no node's run builds a fault
 * injector for a crash, so its results and trace bytes, span
 * events of the attached profiler included, are the unfaulted
 * run's.
 */
TEST(FleetFaults, CrashPlansThatFailNothingOverMatchTheUnfaultedRun)
{
    struct Run
    {
        cluster::Fleet::FleetResult res;
        std::string trace;
        double crashCount = 0.0;
    };
    const auto run = [](const fault::FaultPlan *plan) {
        cluster::Fleet fleet;
        fleet.addNode(
            cluster::Node(machine::MachineConfig::xeonE52630v4(),
                          {cluster::lcAt(apps::xapian(), 0.4),
                           cluster::be(apps::fluidanimate())}),
            std::make_unique<sched::Arq>());
        fleet.addNode(
            cluster::Node(machine::MachineConfig::xeonE52630v4(),
                          {cluster::lcAt(apps::moses(), 0.3),
                           cluster::be(apps::stream())}),
            std::make_unique<sched::Arq>());
        fleet.addNode(
            cluster::Node(machine::MachineConfig::xeonE52630v4(),
                          {cluster::lcAt(apps::imgDnn(), 0.3),
                           cluster::lcAt(apps::xapian(), 0.2)}),
            std::make_unique<sched::Arq>());

        obs::BufferTraceSink sink;
        obs::MetricsRegistry metrics;
        obs::SpanProfiler prof;
        cluster::SimulationConfig cfg;
        cfg.durationSeconds = 20.0;
        cfg.warmupEpochs = 5;
        cfg.attribute = true;
        cfg.slo = true;
        cfg.faults = plan;
        cfg.obs.sink = &sink;
        cfg.obs.metrics = &metrics;
        cfg.obs.prof = &prof;
        exec::ThreadPool pool(2);
        Run out;
        out.res = fleet.run(cfg, &pool);
        out.trace = sink.str();
        out.crashCount = metrics.counter("fault.node_crash");
        return out;
    };

    const Run plain = run(nullptr);
    ASSERT_FALSE(plain.trace.empty());
    ASSERT_NE(plain.trace.find("\"type\":\"span\""), std::string::npos);

    const auto plan_of =
        [](std::vector<std::pair<int, double>> crashes) {
            std::string jsonl;
            for (const auto &[node, at] : crashes) {
                jsonl += R"({"fault":"node_crash","node":)" +
                    std::to_string(node) + R"(,"at_s":)" +
                    std::to_string(at) + "}\n";
            }
            return planOf(jsonl);
        };
    const std::vector<std::pair<std::string, fault::FaultPlan>> plans{
        {"outside the fleet", plan_of({{3, 5.0}, {99, 5.0}})},
        {"at or after the end", plan_of({{1, 20.0}, {0, 25.0}})},
        {"every node", plan_of({{0, 5.0}, {1, 8.0}, {2, 5.0}})},
    };
    for (const auto &[what, plan] : plans) {
        SCOPED_TRACE(what);
        const Run faulted = run(&plan);
        EXPECT_TRUE(faulted.res.crashedNodes.empty());
        EXPECT_EQ(faulted.res.failovers, 0);
        EXPECT_EQ(faulted.crashCount, 0.0);
        EXPECT_EQ(faulted.trace, plain.trace);

        const auto &a = faulted.res;
        const auto &b = plain.res;
        EXPECT_EQ(a.eLc, b.eLc);
        EXPECT_EQ(a.eBe, b.eBe);
        EXPECT_EQ(a.eS, b.eS);
        EXPECT_EQ(a.yieldValue, b.yieldValue);
        EXPECT_EQ(a.violations, b.violations);
        const auto rows_a = a.attribution.rows();
        const auto rows_b = b.attribution.rows();
        ASSERT_FALSE(rows_b.empty());
        ASSERT_EQ(rows_a.size(), rows_b.size());
        for (std::size_t r = 0; r < rows_a.size(); ++r) {
            EXPECT_EQ(rows_a[r].victim + rows_a[r].culprit +
                          rows_a[r].resource,
                      rows_b[r].victim + rows_b[r].culprit +
                          rows_b[r].resource);
            EXPECT_EQ(rows_a[r].share, rows_b[r].share);
            EXPECT_EQ(rows_a[r].epochs, rows_b[r].epochs);
        }
        EXPECT_EQ(a.slo.raises, b.slo.raises);
        EXPECT_EQ(a.slo.worstBurn, b.slo.worstBurn);
        ASSERT_EQ(a.nodes.size(), b.nodes.size());
        for (std::size_t n = 0; n < a.nodes.size(); ++n) {
            const auto &x = a.nodes[n];
            const auto &y = b.nodes[n];
            EXPECT_EQ(x.meanES, y.meanES) << "node " << n;
            EXPECT_EQ(x.violations, y.violations) << "node " << n;
            EXPECT_EQ(x.meanP95Ms, y.meanP95Ms) << "node " << n;
            EXPECT_EQ(x.meanIpc, y.meanIpc) << "node " << n;
            ASSERT_EQ(x.epochs.size(), y.epochs.size());
            for (std::size_t e = 0; e < x.epochs.size(); ++e)
                EXPECT_EQ(x.epochs[e].entropy.eS, y.epochs[e].entropy.eS);
        }
    }
}

} // namespace
