/**
 * @file
 * Tests for thread-local allocation counting (obs/alloc.hh) and its
 * span-profiler integration — the instrument that verifies the
 * epoch loop's zero-alloc steady state instead of trusting code
 * review.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/catalog.hh"
#include "cluster/cluster_sched.hh"
#include "cluster/epoch_sim.hh"
#include "machine/config.hh"
#include "obs/alloc.hh"
#include "obs/attribution.hh"
#include "obs/span.hh"
#include "obs/trace_sink.hh"
#include "perf/contention.hh"
#include "sched/arq.hh"
#include "sched/registry.hh"
#include "trace/fleet_load.hh"

namespace
{

using ahq::obs::allocCountingEnabled;
using ahq::obs::threadAllocCount;

TEST(AllocCount, CountsHeapAllocations)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "sanitizer build: counting compiled out";
    const auto before = threadAllocCount();
    auto p = std::make_unique<int>(42);
    const auto after = threadAllocCount();
    EXPECT_GE(after - before, 1u);
    // The pointer must stay live across the second read so the
    // allocation cannot be elided.
    EXPECT_EQ(*p, 42);
}

TEST(AllocCount, MonotonicAndFreeOfFalsePositives)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "sanitizer build: counting compiled out";
    // Arithmetic on the stack must not move the counter.
    const auto before = threadAllocCount();
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i)
        x = x + i;
    EXPECT_EQ(threadAllocCount(), before);
}

TEST(AllocCount, SpanRecordsAllocationDelta)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "sanitizer build: counting compiled out";
    ahq::obs::SpanProfiler prof;
    ahq::obs::Scope scope;
    scope.prof = &prof;
    {
        ahq::obs::Span span(scope, "work");
        std::vector<int> v(4096, 7);
        EXPECT_EQ(v[0], 7);
    }
    const auto snap = prof.snapshot();
    ASSERT_EQ(snap.count("work"), 1u);
    EXPECT_GE(snap.at("work").allocs, 1u);
}

TEST(AllocCount, AllocsSerialisedOnlyUnderWallClock)
{
    ahq::obs::SpanProfiler prof;
    prof.record("work", 1000, 3);

    ahq::obs::BufferTraceSink deterministic;
    ahq::obs::Scope scope;
    scope.sink = &deterministic;
    prof.flush(scope);
    ASSERT_EQ(deterministic.lines().size(), 1u);
    EXPECT_EQ(deterministic.lines()[0].find("allocs"),
              std::string::npos);

    ahq::obs::BufferTraceSink timed;
    scope.sink = &timed;
    scope.wallClock = true;
    prof.flush(scope);
    ASSERT_EQ(timed.lines().size(), 1u);
    EXPECT_NE(timed.lines()[0].find("\"allocs\":3"),
              std::string::npos);
}

/**
 * The tentpole claim: once its scratch buffers are warm, ARQ's
 * whole monitor+decide path performs zero heap allocations per
 * interval. Counted, not reviewed.
 */
TEST(AllocCount, ArqSteadyStateDecisionLoopIsAllocFree)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "sanitizer build: counting compiled out";

    ahq::sched::Arq arq;
    const auto mc = ahq::machine::MachineConfig::xeonE52630v4();

    std::vector<ahq::sched::AppObservation> obs(3);
    for (int i = 0; i < 3; ++i) {
        auto &o = obs[static_cast<std::size_t>(i)];
        o.id = i;
        o.latencyCritical = i < 2;
        o.thresholdMs = 10.0;
        o.idealP95Ms = 2.0;
        o.p95Ms = i == 0 ? 9.8 : 3.0; // app 0 in violation: moves
        o.ipcSolo = 2.0;
        o.ipc = 1.8;
    }
    auto layout = arq.initialLayout(mc, obs);

    // Warm-up: scratch buffers size themselves, the FSM map fills,
    // the first moves happen.
    double t = 0.0;
    for (int e = 0; e < 32; ++e, t += 0.5)
        arq.adjust(layout, obs, t);

    const auto before = threadAllocCount();
    for (int e = 0; e < 64; ++e, t += 0.5)
        arq.adjust(layout, obs, t);
    EXPECT_EQ(threadAllocCount(), before)
        << "ARQ decision loop allocated in steady state";
}

/**
 * The whole epoch loop, not just the decision: with no records kept
 * and no seam on, a run allocates only while it sets up and warms
 * its buffers, so 800 epochs cost exactly as many allocations as
 * 400 — on the canonical node (every epoch hits the contention memo
 * once the scheduler settles) and on a fleet-shaped node under
 * diurnal load (every epoch misses it).
 */
TEST(AllocCount, EpochLoopIsAllocFreeWithoutObservers)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "sanitizer build: counting compiled out";
    using namespace ahq::cluster;
    namespace apps = ahq::apps;

    const auto mc = ahq::machine::MachineConfig::xeonE52630v4();
    const Node canonical(mc, {lcAt(apps::xapian(), 0.5),
                              lcAt(apps::moses(), 0.2),
                              lcAt(apps::imgDnn(), 0.2),
                              be(apps::stream())});
    ahq::trace::FleetLoadConfig load;
    load.numNodes = 4;
    const Node fleet_node(
        mc, fleetNodeApps(ahq::trace::FleetLoadGenerator(load), 0));

    struct Case
    {
        const char *strategy;
        const Node *node;
    };
    for (const Case &c : {Case{"Unmanaged", &canonical},
                          Case{"Unmanaged", &fleet_node},
                          Case{"ARQ", &canonical}}) {
        auto allocs = [&](int epochs) {
            SimulationConfig cfg;
            cfg.durationSeconds = epochs * cfg.epochSeconds;
            cfg.keepEpochs = false;
            cfg.checkMode = ahq::check::Mode::Off;
            const EpochSimulator sim(*c.node, cfg);
            auto sched = ahq::sched::makeScheduler(c.strategy);
            const auto before = threadAllocCount();
            const auto res = sim.run(*sched);
            const auto count = threadAllocCount() - before;
            EXPECT_TRUE(res.epochs.empty());
            return count;
        };
        // The first run on a thread also grows the thread's contention
        // workspace to this node's layouts.
        allocs(800);
        EXPECT_EQ(allocs(400), allocs(800))
            << c.strategy << " on " << c.node->describe();
    }
}

/**
 * A lock-step group of four fleet-shaped ARQ nodes under diurnal load
 * (every epoch misses each node's memo, and the four misses solve as
 * lanes of one pass) allocates only while its runs set up and warm
 * their buffers: 800 epochs cost exactly as many allocations as 400.
 */
TEST(AllocCount, LockstepGroupIsAllocFree)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "sanitizer build: counting compiled out";
    using namespace ahq::cluster;

    const auto mc = ahq::machine::MachineConfig::xeonE52630v4();
    ahq::trace::FleetLoadConfig load;
    load.numNodes = 4;
    const ahq::trace::FleetLoadGenerator gen(load);
    std::vector<Node> nodes;
    for (int n = 0; n < 4; ++n)
        nodes.emplace_back(mc, fleetNodeApps(gen, n));
    auto allocs = [&](int epochs) {
        std::vector<EpochSimulator> sims;
        std::vector<std::unique_ptr<ahq::sched::Scheduler>> scheds;
        std::vector<ahq::sched::Scheduler *> arms;
        std::vector<SimulationResult> results(nodes.size());
        std::vector<GroupRun> group;
        sims.reserve(nodes.size());
        arms.reserve(nodes.size());
        for (std::size_t n = 0; n < nodes.size(); ++n) {
            SimulationConfig cfg;
            cfg.durationSeconds = epochs * cfg.epochSeconds;
            cfg.keepEpochs = false;
            cfg.checkMode = ahq::check::Mode::Off;
            cfg.seed = 42 + n;
            sims.emplace_back(nodes[n], cfg);
            scheds.push_back(ahq::sched::makeScheduler("ARQ"));
            arms.push_back(scheds.back().get());
            group.push_back({&sims[n], {&arms[n], 1}, nullptr, &results[n]});
        }
        const auto before = threadAllocCount();
        EpochSimulator::runGroup(group);
        return threadAllocCount() - before;
    };
    // The first group on a thread also grows the thread's contention
    // workspace to these nodes' layouts.
    allocs(800);
    EXPECT_EQ(allocs(400), allocs(800));
}

/**
 * Forwards every call to a registered strategy and counts the heap
 * allocations made inside each adjust(), by interval.
 */
class AllocCountingScheduler : public ahq::sched::Scheduler
{
  public:
    explicit AllocCountingScheduler(const std::string &strategy)
        : inner_(ahq::sched::makeScheduler(strategy))
    {
    }

    std::string name() const override { return inner_->name(); }

    ahq::machine::RegionLayout
    initialLayout(const ahq::machine::MachineConfig &config,
                  const std::vector<ahq::sched::AppObservation> &apps)
        override
    {
        return inner_->initialLayout(config, apps);
    }

    ahq::perf::CoreSharePolicy corePolicy() const override
    {
        return inner_->corePolicy();
    }

    void adjust(ahq::machine::RegionLayout &layout,
                const std::vector<ahq::sched::AppObservation> &obs,
                double now_s) override
    {
        inner_->setObsScope(obsScope());
        const auto before = threadAllocCount();
        inner_->adjust(layout, obs, now_s);
        allocs.push_back(threadAllocCount() - before);
    }

    void reset() override { inner_->reset(); }

    void onActuation(bool applied) override
    {
        inner_->onActuation(applied);
    }

    /** Allocations inside the i-th adjust() call. */
    std::vector<std::uint64_t> allocs;

  private:
    std::unique_ptr<ahq::sched::Scheduler> inner_;
};

/** A trace sink that keeps nothing, so its buffer is not measured. */
class CountingTraceSink : public ahq::obs::TraceSink
{
  public:
    void write(std::string_view) override { ++lines; }

    std::size_t lines = 0;
};

/**
 * Every registered strategy decides without allocating once warm:
 * over 3,600 epochs with no observer attached, no adjust() after
 * epoch 400 allocates — on the canonical node and on a fleet-shaped
 * node under diurnal and flash load. A controller whose state grows
 * with run length (a sample history, a map that gains keys late)
 * fails here. ARQ runs once more with every epoch traced: building
 * its `arq_decision` event allocates nothing either.
 */
TEST(AllocCount, EverySchedulerDecidesWithoutAllocating)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "sanitizer build: counting compiled out";
    using namespace ahq::cluster;
    namespace apps = ahq::apps;

    const auto mc = ahq::machine::MachineConfig::xeonE52630v4();
    const Node canonical(mc, {lcAt(apps::xapian(), 0.5),
                              lcAt(apps::moses(), 0.2),
                              lcAt(apps::imgDnn(), 0.2),
                              be(apps::stream())});
    ahq::trace::FleetLoadConfig load;
    load.numNodes = 4;
    const Node fleet_node(
        mc, fleetNodeApps(ahq::trace::FleetLoadGenerator(load), 0));

    constexpr std::size_t kWarmEpochs = 400;
    SimulationConfig cfg;
    cfg.durationSeconds = 3600 * cfg.epochSeconds;
    cfg.keepEpochs = false;
    cfg.checkMode = ahq::check::Mode::Off;
    CountingTraceSink sink;
    std::vector<std::pair<std::string, bool>> cases;
    for (const auto &strategy : ahq::sched::allStrategyNames())
        cases.emplace_back(strategy, false);
    cases.emplace_back("ARQ", true);
    for (const auto &[strategy, traced] : cases) {
        for (const Node *node : {&canonical, &fleet_node}) {
            AllocCountingScheduler sched(strategy);
            SimulationConfig run_cfg = cfg;
            run_cfg.obs.sink = traced ? &sink : nullptr;
            const std::size_t lines = sink.lines;
            EpochSimulator(*node, run_cfg).run(sched);
            EXPECT_EQ(sink.lines > lines, traced);
            // adjust() runs once per epoch from epoch 1 on, so call
            // i decides epoch i + 1.
            ASSERT_EQ(sched.allocs.size(), 3599u);
            std::uint64_t late = 0;
            std::size_t first = 0;
            for (std::size_t i = kWarmEpochs; i < sched.allocs.size();
                 ++i) {
                if (sched.allocs[i] > 0 && late == 0)
                    first = i + 1;
                late += sched.allocs[i];
            }
            EXPECT_EQ(late, 0u)
                << strategy << (traced ? " (traced)" : "") << " on "
                << node->describe()
                << " allocated in adjust() after epoch " << kWarmEpochs
                << " (first at epoch " << first << ")";
        }
    }
}

/**
 * A profiled run allocates nothing per epoch once warm: closing a
 * span looks its path up without copying it, so a profiled ARQ run
 * on the canonical node records as many allocations under
 * `run/epoch` over 800 epochs as over 400.
 */
TEST(AllocCount, WarmProfiledEpochIsAllocFree)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "sanitizer build: counting compiled out";
    using namespace ahq::cluster;
    namespace apps = ahq::apps;

    const Node canonical(ahq::machine::MachineConfig::xeonE52630v4(),
                         {lcAt(apps::xapian(), 0.5),
                          lcAt(apps::moses(), 0.2),
                          lcAt(apps::imgDnn(), 0.2),
                          be(apps::stream())});
    auto epoch_allocs = [&](int epochs) {
        ahq::obs::SpanProfiler prof;
        SimulationConfig cfg;
        cfg.durationSeconds = epochs * cfg.epochSeconds;
        cfg.keepEpochs = false;
        cfg.checkMode = ahq::check::Mode::Off;
        cfg.obs.prof = &prof;
        auto sched = ahq::sched::makeScheduler("ARQ");
        EpochSimulator(canonical, cfg).run(*sched);
        const auto snap = prof.snapshot();
        EXPECT_EQ(snap.at("run/epoch").count,
                  static_cast<std::uint64_t>(epochs));
        return snap.at("run/epoch").allocs;
    };
    // The first run also grows this thread's span path buffer.
    epoch_allocs(400);
    EXPECT_EQ(epoch_allocs(400), epoch_allocs(800));
}

/**
 * A metric call with no registry attached is one branch: a name too
 * long for the small-string buffer must not be copied to the heap
 * before the null check.
 */
TEST(AllocCount, MetricCallsWithoutRegistryDoNotAllocate)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "sanitizer build: counting compiled out";
    const ahq::obs::Scope scope;
    const auto before = threadAllocCount();
    for (int i = 0; i < 100; ++i) {
        scope.count("parties.downsize_trial");
        scope.observe("exec.scenario_wall_ms", 1.0);
    }
    EXPECT_EQ(threadAllocCount() - before, 0u)
        << "allocations in 200 metric calls with no registry attached";
}

/**
 * The contention model's memo-miss path under both policies: a warm
 * model evaluates 200 distinct diurnal demand vectors of a
 * fleet-shaped node on ARQ's initial layout and on one shared
 * region. The 800 inputs cycle through the memo's 64 entries, so
 * every call misses; once two passes have warmed the workspace and
 * every memo slot, a third allocates nothing.
 */
TEST(AllocCount, ContentionMissPathIsAllocFree)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "sanitizer build: counting compiled out";
    using namespace ahq::cluster;
    using ahq::machine::RegionLayout;
    namespace perf = ahq::perf;

    const auto mc = ahq::machine::MachineConfig::xeonE52630v4();
    ahq::trace::FleetLoadConfig load;
    load.numNodes = 4;
    const Node node(
        mc, fleetNodeApps(ahq::trace::FleetLoadGenerator(load), 0));
    std::vector<std::vector<perf::AppDemand>> inputs(200);
    for (std::size_t k = 0; k < inputs.size(); ++k)
        node.demandsAt(0.5 * static_cast<double>(k), inputs[k]);
    std::vector<ahq::machine::AppId> lc, be, all;
    for (int i = 0; i < node.numApps(); ++i) {
        const bool is_lc =
            node.apps()[static_cast<std::size_t>(i)].profile.latencyCritical;
        (is_lc ? lc : be).push_back(i);
        all.push_back(i);
    }
    const RegionLayout layouts[] = {
        RegionLayout::arqInitial(mc.availableResources(), lc, be),
        RegionLayout::fullyShared(mc.availableResources(), all)};

    const perf::ContentionModel model(mc);
    std::vector<perf::PerfOutcome> out;
    auto pass = [&] {
        for (const auto policy : {perf::CoreSharePolicy::FairShare,
                                  perf::CoreSharePolicy::LcPriority}) {
            for (const RegionLayout &layout : layouts) {
                for (const auto &demands : inputs)
                    model.evaluateInto(layout, demands, policy, out);
            }
        }
    };
    pass();
    pass();
    const auto before = threadAllocCount();
    pass();
    EXPECT_EQ(threadAllocCount(), before)
        << "contention memo-miss path allocated once warm";
    // No call hit, so every one of them ran the miss path.
    EXPECT_EQ(model.memoHits(), 0u);
}

/**
 * Attribution's batched counterfactuals once warm: every LC victim
 * of a fleet-shaped node suffers, so each attribute() call solves
 * all n counterfactuals, and 200 diurnal inputs cycle through the
 * memo's 64 entries, so every one misses. After two passes have
 * warmed the attributor's buffers, its model's workspace and every
 * memo slot, a third allocates nothing.
 */
TEST(AllocCount, WarmAttributionIsAllocFree)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "sanitizer build: counting compiled out";
    using namespace ahq::cluster;
    namespace perf = ahq::perf;

    const auto mc = ahq::machine::MachineConfig::xeonE52630v4();
    ahq::trace::FleetLoadConfig load;
    load.numNodes = 4;
    const Node node(
        mc, fleetNodeApps(ahq::trace::FleetLoadGenerator(load), 0));
    std::vector<ahq::machine::AppId> lc, be;
    for (int i = 0; i < node.numApps(); ++i) {
        (node.apps()[static_cast<std::size_t>(i)].profile.latencyCritical
             ? lc
             : be)
            .push_back(i);
    }
    const auto layout = ahq::machine::RegionLayout::arqInitial(
        mc.availableResources(), lc, be);
    constexpr auto kPolicy = perf::CoreSharePolicy::LcPriority;
    std::vector<std::vector<perf::AppDemand>> inputs(200);
    std::vector<std::vector<perf::PerfOutcome>> base(inputs.size());
    const perf::ContentionModel model(mc);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
        node.demandsAt(0.5 * static_cast<double>(k), inputs[k]);
        model.evaluateInto(layout, inputs[k], kPolicy, base[k]);
    }
    std::vector<ahq::core::LcBreakdown> detail(lc.size());
    for (ahq::core::LcBreakdown &d : detail)
        d.interference = 0.3;

    ahq::obs::InterferenceAttributor attributor(mc);
    std::vector<ahq::obs::AttributionShare> shares;
    auto pass = [&] {
        for (std::size_t k = 0; k < inputs.size(); ++k) {
            attributor.attribute(layout, inputs[k], kPolicy, base[k], lc,
                                 detail, shares);
        }
    };
    pass();
    pass();
    const auto evals = attributor.evaluations();
    const auto before = threadAllocCount();
    pass();
    EXPECT_EQ(threadAllocCount(), before)
        << "attribute() allocated once warm";
    EXPECT_EQ(attributor.evaluations() - evals,
              static_cast<long long>(inputs.size()) * node.numApps());
}

} // namespace
