/**
 * @file
 * Interference attribution: ledger algebra, the conservation
 * property (per-epoch shares sum to the victim's measured R_i),
 * the headline "who is hurting my LC app" scenario, and the trace
 * byte-identity of attribution events at any thread count —
 * including under chaos fault injection.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iomanip>
#include <map>
#include <random>
#include <sstream>

#include "apps/catalog.hh"
#include "check/check.hh"
#include "cluster/cluster_sched.hh"
#include "cluster/epoch_sim.hh"
#include "exec/scenario_runner.hh"
#include "exec/thread_pool.hh"
#include "fault/plan.hh"
#include "obs/attribution.hh"
#include "obs/scope.hh"
#include "obs/trace_reader.hh"
#include "sched/registry.hh"
#include "stats/rng.hh"
#include "trace/fleet_load.hh"

namespace
{

using namespace ahq;

cluster::SimulationConfig
shortConfig(std::uint64_t seed)
{
    cluster::SimulationConfig c;
    c.durationSeconds = 20.0;
    c.warmupEpochs = 10;
    c.seed = seed;
    c.attribute = true;
    return c;
}

// ---- ledger algebra -------------------------------------------------

TEST(AttributionLedger, AccumulatesAndSortsRows)
{
    obs::AttributionLedger l;
    EXPECT_TRUE(l.empty());
    l.add("xapian", "stream", "bandwidth", 0.10);
    l.add("xapian", "stream", "bandwidth", 0.05);
    l.add("xapian", "moses", "ways", 0.02);
    l.add("moses", "stream", "cores", 0.30);
    EXPECT_EQ(l.size(), 3u);

    const auto rows = l.rows();
    ASSERT_EQ(rows.size(), 3u);
    // Key-sorted: (victim, culprit, resource).
    EXPECT_EQ(rows[0].victim, "moses");
    EXPECT_EQ(rows[1].victim, "xapian");
    EXPECT_EQ(rows[1].culprit, "moses");
    EXPECT_EQ(rows[2].culprit, "stream");
    EXPECT_DOUBLE_EQ(rows[2].share, 0.15);
    EXPECT_EQ(rows[2].epochs, 2);

    EXPECT_DOUBLE_EQ(l.victimTotal("xapian"), 0.17);
    EXPECT_DOUBLE_EQ(l.victimTotal("moses"), 0.30);
    EXPECT_DOUBLE_EQ(l.victimTotal("nobody"), 0.0);
    EXPECT_EQ(l.topBlame("xapian"), "stream:bandwidth");
    EXPECT_EQ(l.topBlame("moses"), "stream:cores");
    EXPECT_EQ(l.topBlame("nobody"), "");
}

TEST(AttributionLedger, MergeIsCommutative)
{
    obs::AttributionLedger a, b;
    a.add("x", "s", "bandwidth", 0.1);
    a.add("x", "m", "ways", 0.2);
    b.add("x", "s", "bandwidth", 0.3);
    b.add("y", "s", "cores", 0.4);

    obs::AttributionLedger ab, ba;
    ab.merge(a);
    ab.merge(b);
    ba.merge(b);
    ba.merge(a);

    const auto ra = ab.rows(), rb = ba.rows();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].victim, rb[i].victim);
        EXPECT_EQ(ra[i].culprit, rb[i].culprit);
        EXPECT_EQ(ra[i].resource, rb[i].resource);
        EXPECT_DOUBLE_EQ(ra[i].share, rb[i].share);
        EXPECT_EQ(ra[i].epochs, rb[i].epochs);
    }
}

TEST(AttributionLedger, RealCulpritOutranksNoiseResidual)
{
    obs::AttributionLedger l;
    l.add("x", obs::kNoiseCulpritName, "other", 0.9);
    l.add("x", "stream", "bandwidth", 0.01);
    // The residual row has 90x the share but never wins over a
    // real co-runner.
    EXPECT_EQ(l.topBlame("x"), "stream:bandwidth");

    obs::AttributionLedger only_noise;
    only_noise.add("y", obs::kNoiseCulpritName, "other", 0.5);
    EXPECT_EQ(only_noise.topBlame("y"),
              std::string(obs::kNoiseCulpritName) + ":other");
}

// ---- conservation: shares sum to R_i --------------------------------

/**
 * Every attribution event's shares must sum to its r_i within 1e-9,
 * and the run's ledger totals must equal the summed per-epoch R_i.
 * Randomized colocations (seeded, so reproducible) under every
 * registered strategy, with strict invariant audits riding along.
 */
TEST(AttributionConservation, SharesSumToRiAcrossAllStrategies)
{
    const std::vector<apps::AppProfile> lc_pool = {
        apps::xapian(), apps::moses(), apps::imgDnn(),
        apps::masstree(), apps::sphinx(), apps::silo()};
    const std::vector<apps::AppProfile> be_pool = {
        apps::stream(), apps::fluidanimate(),
        apps::streamcluster()};

    std::uint64_t seed = 1000;
    for (const std::string &strategy : sched::allStrategyNames()) {
        std::mt19937_64 rng(seed);
        std::uniform_real_distribution<double> load(0.2, 0.8);
        const auto pick = [&](const auto &pool) {
            return pool[rng() % pool.size()];
        };
        cluster::Node node(
            machine::MachineConfig::xeonE52630v4(),
            {cluster::lcAt(pick(lc_pool), load(rng)),
             cluster::lcAt(pick(lc_pool), load(rng)),
             cluster::be(pick(be_pool))});

        obs::BufferTraceSink sink;
        cluster::SimulationConfig cfg = shortConfig(seed++);
        cfg.obs.sink = &sink;
        cfg.checkMode = check::Mode::Strict;
        const auto sched = sched::makeScheduler(strategy);
        cluster::EpochSimulator sim(node, cfg);
        const auto res = sim.run(*sched);

        std::istringstream in(sink.str());
        std::vector<obs::TraceEvent> events;
        obs::forEachTrace(in, [&](const obs::TraceEvent &ev, int) {
            events.push_back(ev);
        });
        std::map<std::string, double> summed_ri;
        std::size_t attributed = 0;
        for (const auto &ev : events) {
            if (ev.type() != "attribution")
                continue;
            ++attributed;
            const double ri = ev.num("r_i");
            const auto shares = ev.nums("shares");
            const auto culprits = ev.strs("culprits");
            const auto resources = ev.strs("resources");
            ASSERT_EQ(shares.size(), culprits.size());
            ASSERT_EQ(shares.size(), resources.size());
            ASSERT_FALSE(shares.empty());
            double sum = 0.0;
            for (const double s : shares) {
                EXPECT_GE(s, 0.0);
                sum += s;
            }
            EXPECT_NEAR(sum, ri, 1e-9)
                << strategy << " epoch "
                << static_cast<int>(ev.num("epoch"));
            summed_ri[ev.str("app")] += ri;
        }
        // The colocations are overloaded enough that at least one
        // post-warmup epoch attributes something under every
        // strategy; if not, the test lost its teeth.
        EXPECT_GT(attributed, 0u) << strategy;

        // Ledger totals == summed per-epoch R_i per victim.
        for (const auto &[victim, total] : summed_ri) {
            EXPECT_NEAR(res.attribution.victimTotal(victim), total,
                        1e-9 * static_cast<double>(attributed + 1))
                << strategy << " " << victim;
        }
    }
}

// ---- the headline scenario ------------------------------------------

/**
 * The paper's motivating question: a cache/bandwidth-hungry
 * STREAM-like BE co-runner next to a cache-sensitive LC app. The
 * ledger must name the hog as the top culprit, with a bandwidth
 * share present in the decomposition.
 */
TEST(Attribution, StreamBeBlamedForXapianInterference)
{
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.5),
                        cluster::be(apps::stream())});
    cluster::SimulationConfig cfg = shortConfig(42);
    const auto unmanaged = sched::makeScheduler("Unmanaged");
    cluster::EpochSimulator sim(node, cfg);
    const auto res = sim.run(*unmanaged);

    ASSERT_FALSE(res.attribution.empty());
    EXPECT_GT(res.attribution.victimTotal("xapian"), 0.0);
    EXPECT_EQ(res.attribution.topBlame("xapian").rfind("stream:", 0),
              0u)
        << res.attribution.topBlame("xapian");

    bool bandwidth_row = false;
    for (const auto &row : res.attribution.rows()) {
        if (row.victim == "xapian" && row.culprit == "stream" &&
            row.resource == "bandwidth" && row.share > 0.0)
            bandwidth_row = true;
    }
    EXPECT_TRUE(bandwidth_row);
}

/**
 * Every share of seeded attribute() calls — victim, culprit,
 * resource and the share's bits — folded into one FNV-1a-64 digest:
 * four fleet-shaped nodes under diurnal load, the canonical node and
 * a lone LC app, each on ARQ's initial layout and on one shared
 * region, under both policies, with each victim's R_i drawn positive
 * or zero. Some calls repeat, so the attributor's memo serves their
 * counterfactuals. A speed-only change to the counterfactual path
 * must leave the digest unchanged.
 */
TEST(Attribution, ShareDigestIsPinned)
{
    const auto mc = machine::MachineConfig::xeonE52630v4();
    trace::FleetLoadConfig load;
    load.numNodes = 4;
    const trace::FleetLoadGenerator gen(load);
    std::vector<cluster::Node> nodes;
    for (int k = 0; k < load.numNodes; ++k)
        nodes.emplace_back(mc, cluster::fleetNodeApps(gen, k));
    nodes.emplace_back(mc, std::vector<cluster::ColocatedApp>{
                               cluster::lcAt(apps::xapian(), 0.5),
                               cluster::lcAt(apps::moses(), 0.2),
                               cluster::lcAt(apps::imgDnn(), 0.2),
                               cluster::be(apps::stream())});
    // Alone on the node, a victim has no co-runner to blame: every
    // R_i > 0 lands on the residual row.
    nodes.emplace_back(mc, std::vector<cluster::ColocatedApp>{
                               cluster::lcAt(apps::xapian(), 0.5)});

    std::uint64_t h = 14695981039346656037ULL;
    auto fold = [&h](std::uint64_t bits) {
        for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 1099511628211ULL;
        }
    };
    stats::Rng rng(20261019);
    const perf::ContentionModel model(mc);
    obs::InterferenceAttributor attributor(mc);
    std::vector<perf::AppDemand> demands;
    std::vector<perf::PerfOutcome> base;
    std::vector<core::LcBreakdown> detail;
    std::vector<obs::AttributionShare> shares;
    std::size_t rows = 0, noise = 0, calls = 0;
    long long expected_evals = 0;
    for (const cluster::Node &node : nodes) {
        std::vector<machine::AppId> lc, be, all;
        for (int i = 0; i < node.numApps(); ++i) {
            (node.apps()[static_cast<std::size_t>(i)]
                     .profile.latencyCritical
                 ? lc
                 : be)
                .push_back(i);
            all.push_back(i);
        }
        const machine::RegionLayout layouts[] = {
            machine::RegionLayout::arqInitial(mc.availableResources(),
                                              lc, be),
            machine::RegionLayout::fullyShared(mc.availableResources(),
                                               all)};
        for (const auto policy : {perf::CoreSharePolicy::FairShare,
                                  perf::CoreSharePolicy::LcPriority}) {
            for (const machine::RegionLayout &layout : layouts) {
                for (int e = 0; e < 24; ++e) {
                    node.demandsAt(10.0 * e, demands);
                    for (perf::AppDemand &d : demands)
                        d.arrivalRate *= rng.uniform(0.6, 1.2);
                    model.evaluateInto(layout, demands, policy, base);
                    detail.assign(lc.size(), core::LcBreakdown{});
                    bool any = false;
                    for (core::LcBreakdown &b : detail) {
                        if (rng.bernoulli(0.7))
                            b.interference = rng.uniform(0.01, 0.9);
                        any = any || b.interference > 0.0;
                    }
                    const int repeats = rng.bernoulli(0.25) ? 2 : 1;
                    for (int r = 0; r < repeats; ++r) {
                        attributor.attribute(layout, demands, policy,
                                             base, lc, detail, shares);
                        ++calls;
                        if (any)
                            expected_evals += node.numApps();
                        for (const obs::AttributionShare &s : shares) {
                            fold(static_cast<std::uint64_t>(s.victim));
                            fold(static_cast<std::uint64_t>(s.culprit));
                            fold(static_cast<std::uint64_t>(s.resource));
                            std::uint64_t bits;
                            std::memcpy(&bits, &s.share, sizeof(bits));
                            fold(bits);
                            ++rows;
                            noise += s.culprit == obs::kNoiseCulprit;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(attributor.evaluations(), expected_evals);
    // The corpus reaches real culprits and the residual row.
    EXPECT_GT(rows, 4 * calls);
    EXPECT_GT(noise, 0u);
    EXPECT_EQ(h, 0x58e0008af53b893cULL)
        << "share digest is now 0x" << std::hex << std::setw(16)
        << std::setfill('0') << h;
}

/** Attribution must observe, never perturb the simulation. */
TEST(Attribution, ResultsBitwiseEqualWithAttributionOff)
{
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.6),
                        cluster::lcAt(apps::moses(), 0.3),
                        cluster::be(apps::stream())});
    const auto run_with = [&](bool attribute, bool slo) {
        cluster::SimulationConfig cfg = shortConfig(7);
        cfg.attribute = attribute;
        cfg.slo = slo;
        const auto arq = sched::makeScheduler("ARQ");
        cluster::EpochSimulator sim(node, cfg);
        return sim.run(*arq);
    };
    const auto plain = run_with(false, false);
    const auto attributed = run_with(true, true);
    EXPECT_EQ(plain.meanES, attributed.meanES);
    EXPECT_EQ(plain.meanELc, attributed.meanELc);
    EXPECT_EQ(plain.meanEBe, attributed.meanEBe);
    EXPECT_EQ(plain.violations, attributed.violations);
    EXPECT_TRUE(plain.attribution.empty());
    EXPECT_FALSE(attributed.attribution.empty());
}

// ---- byte identity at any thread count ------------------------------

std::vector<exec::ScenarioJob>
attributedBatch(const fault::FaultPlan *faults)
{
    std::vector<exec::ScenarioJob> jobs;
    std::uint64_t seed = 21;
    for (const auto &strategy : {"ARQ", "Unmanaged", "PARTIES"}) {
        cluster::Node node(
            machine::MachineConfig::xeonE52630v4(),
            {cluster::lcAt(apps::xapian(), 0.7),
             cluster::lcAt(apps::moses(), 0.3),
             cluster::be(apps::stream())});
        cluster::SimulationConfig cfg = shortConfig(seed++);
        cfg.slo = true;
        cfg.faults = faults;
        jobs.push_back({strategy, node, cfg,
                        std::string("attr-") + strategy});
    }
    return jobs;
}

std::string
runBatch(int threads, const std::vector<exec::ScenarioJob> &jobs)
{
    exec::ThreadPool pool(threads);
    obs::BufferTraceSink sink;
    obs::Scope scope;
    scope.sink = &sink;
    exec::ScenarioRunner runner(&pool);
    runner.setObsScope(scope);
    runner.run(jobs);
    return sink.str();
}

TEST(AttributionDeterminism, TraceBytesIdenticalAt1_4_16Threads)
{
    const auto jobs = attributedBatch(nullptr);
    const std::string t1 = runBatch(1, jobs);
    const std::string t4 = runBatch(4, jobs);
    const std::string t16 = runBatch(16, jobs);
    ASSERT_FALSE(t1.empty());
    EXPECT_EQ(t1, t4);
    EXPECT_EQ(t1, t16);

    // The trace actually exercises the new event families.
    std::istringstream in(t1);
    std::size_t attributions = 0, alerts = 0;
    obs::forEachTrace(in, [&](const obs::TraceEvent &ev, int) {
        if (ev.type() == "attribution")
            ++attributions;
        if (ev.type() == "alert_raise" ||
            ev.type() == "alert_clear")
            ++alerts;
    });
    EXPECT_GT(attributions, 0u);
    EXPECT_GT(alerts, 0u);
}

TEST(AttributionDeterminism, ChaosTraceBytesIdenticalAcrossThreads)
{
    const fault::FaultPlan plan = fault::FaultPlan::builtinChaos();
    const auto jobs = attributedBatch(&plan);
    const std::string t1 = runBatch(1, jobs);
    const std::string t16 = runBatch(16, jobs);
    ASSERT_FALSE(t1.empty());
    EXPECT_EQ(t1, t16);
}

} // namespace
