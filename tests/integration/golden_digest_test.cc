/**
 * @file
 * Golden output digests: a byte oracle that holds across commits.
 *
 * Each case runs a representative simulation and folds everything
 * it produces — the trace bytes, the flushed time series and the
 * bits of every result field (means, violations, yield, per-app
 * vectors, blame ledger, SLO summary and, when records are kept,
 * each record's observations, outcomes, entropy, queue backlog,
 * policy arm and layout region resources) — into one FNV-1a-64
 * digest pinned below. A refactor must leave every digest alone.
 *
 * A deliberate output change re-records the digests: run this test,
 * copy each printed "now 0x..." value into the table, and say in the
 * change description that the outputs moved and why.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/catalog.hh"
#include "cluster/cluster_sched.hh"
#include "cluster/epoch_sim.hh"
#include "cluster/fleet.hh"
#include "exec/scenario_runner.hh"
#include "exec/thread_pool.hh"
#include "experiment/harness.hh"
#include "fault/plan.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/timeseries.hh"
#include "obs/trace_sink.hh"
#include "sched/registry.hh"
#include "trace/fleet_load.hh"
#include "trace/load_trace.hh"

namespace
{

using namespace ahq;
using namespace ahq::cluster;

/** FNV-1a-64 over a byte stream. */
class Fnv
{
  public:
    void bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t k = 0; k < n; ++k) {
            h_ ^= b[k];
            h_ *= 1099511628211ULL;
        }
    }
    void u(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void i(long long v) { u(static_cast<std::uint64_t>(v)); }
    void d(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u(bits);
    }
    void s(const std::string &v)
    {
        u(v.size());
        bytes(v.data(), v.size());
    }
    void ds(const std::vector<double> &v)
    {
        u(v.size());
        for (const double x : v)
            d(x);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ULL;
};

void
add(Fnv &h, const sched::AppObservation &o)
{
    h.i(o.id);
    h.i(o.latencyCritical);
    h.i(o.threads);
    h.d(o.loadFraction);
    h.d(o.arrivalRate);
    h.d(o.p95Ms);
    h.d(o.idealP95Ms);
    h.d(o.thresholdMs);
    h.d(o.ipc);
    h.d(o.ipcSolo);
    h.i(o.sampleValid);
}

void
add(Fnv &h, const perf::PerfOutcome &o)
{
    for (const double v :
         {o.coreEquivalents, o.effectiveWays, o.bwDilation, o.speed,
          o.serviceStretch, o.perServerRate, o.serviceRate,
          o.utilization, o.ipc, o.bwDemandGibps})
        h.d(v);
}

void
add(Fnv &h, const core::EntropyReport &r)
{
    h.u(r.lcDetail.size());
    for (const auto &b : r.lcDetail) {
        h.d(b.tolerance);
        h.d(b.interference);
        h.d(b.remainingTolerance);
        h.d(b.intolerable);
    }
    for (const double v :
         {r.eLc, r.eBe, r.eS, r.yieldValue, r.meanTolerance,
          r.meanInterference, r.meanRemainingTolerance})
        h.d(v);
}

void
add(Fnv &h, const EpochRecord &rec)
{
    h.d(rec.time);
    h.u(rec.obs.size());
    for (const auto &o : rec.obs)
        add(h, o);
    h.u(rec.outcomes.size());
    for (const auto &o : rec.outcomes)
        add(h, o);
    add(h, rec.entropy);
    h.ds(rec.queueBacklog);
    h.i(rec.policyArm);
    h.i(rec.layout.numRegions());
    for (int r = 0; r < rec.layout.numRegions(); ++r) {
        const auto &res = rec.layout.region(r).res;
        h.i(res.cores);
        h.i(res.llcWays);
        h.i(res.memBw);
    }
}

void
add(Fnv &h, const obs::AttributionLedger &ledger)
{
    const auto rows = ledger.rows();
    h.u(rows.size());
    for (const auto &row : rows) {
        h.s(row.victim);
        h.s(row.culprit);
        h.s(row.resource);
        h.d(row.share);
        h.i(row.epochs);
    }
}

void
add(Fnv &h, const obs::SloSummary &s)
{
    h.i(s.raises);
    h.i(s.clears);
    h.i(s.activeAtEnd);
    h.i(s.alertEpochs);
    h.d(s.worstBurn);
}

void
add(Fnv &h, const SimulationResult &res)
{
    h.i(res.warmupEpochs);
    h.d(res.meanELc);
    h.d(res.meanEBe);
    h.d(res.meanES);
    h.d(res.yieldValue);
    h.i(res.violations);
    h.ds(res.meanP95Ms);
    h.ds(res.meanIpc);
    h.ds(res.steadyMeanLoad);
    add(h, res.attribution);
    add(h, res.slo);
    h.u(res.epochs.size());
    for (const auto &rec : res.epochs)
        add(h, rec);
}

/** Trace bytes plus, when a registry is given, its flushed series. */
void
addOutputs(Fnv &h, const obs::BufferTraceSink &sink,
           const obs::TimeSeriesRegistry *series = nullptr)
{
    h.s(sink.str());
    if (series != nullptr) {
        obs::BufferTraceSink flushed;
        obs::Scope scope;
        scope.sink = &flushed;
        series->flush(scope);
        h.s(flushed.str());
    }
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

void
expectDigest(const std::string &name, const Fnv &h,
             std::uint64_t golden)
{
    EXPECT_EQ(h.value(), golden)
        << "golden digest for " << name << " is now "
        << hex(h.value()) << " (was " << hex(golden) << ")";
}

/** 120 epochs, audits off whatever AHQ_CHECK says. */
SimulationConfig
baseConfig()
{
    SimulationConfig c;
    c.durationSeconds = 60.0;
    c.checkMode = check::Mode::Off;
    return c;
}

Node
canonicalNode()
{
    return Node(machine::MachineConfig::xeonE52630v4(),
                {lcAt(apps::xapian(), 0.5), lcAt(apps::moses(), 0.2),
                 lcAt(apps::imgDnn(), 0.2), be(apps::stream())});
}

trace::FleetLoadGenerator
fleetLoad(int nodes)
{
    trace::FleetLoadConfig lc;
    lc.numNodes = nodes;
    lc.seed = 42;
    return trace::FleetLoadGenerator(lc);
}

Node
fleetShapedNode()
{
    return Node(machine::MachineConfig::xeonE52630v4(),
                fleetNodeApps(fleetLoad(8), 0));
}

TEST(GoldenDigest, EverySchedulerOnTheCanonicalNode)
{
    const std::vector<std::pair<std::string, std::uint64_t>> golden{
        {"Unmanaged", 0xf6778736ae2d5334ULL},
        {"LC-first", 0x25fd903ef1390f3bULL},
        {"PARTIES", 0xf7c369b63f80c9d3ULL},
        {"CLITE", 0x2e032e6ba46947c5ULL},
        {"ARQ", 0x8ae07ba0c660137aULL},
        {"Heracles", 0xe1666a61e8826f4fULL},
        {"CoPart", 0xb3731d8f3caadb79ULL}};
    ASSERT_EQ(golden.size(), sched::allStrategyNames().size());
    for (const auto &[name, digest] : golden) {
        obs::BufferTraceSink sink;
        SimulationConfig cfg = baseConfig();
        cfg.obs.sink = &sink;
        auto s = sched::makeScheduler(name);
        const auto res = EpochSimulator(canonicalNode(), cfg).run(*s);
        ASSERT_EQ(res.epochs.size(), 120u);
        Fnv h;
        add(h, res);
        addOutputs(h, sink);
        expectDigest("canonical/" + name, h, digest);
    }
}

/**
 * Every scheduler over 2,400 epochs on two nodes whose load moves:
 * fleet-shaped node 0 (diurnal and flash load) and the canonical
 * node with Xapian on Fig. 13's step trace. The 120-epoch canonical
 * case never makes CLITE re-explore; here the trace proves that
 * CLITE's load-shift reset and PARTIES' trial revert both ran, so
 * the digests cover those paths and the long-run controller state.
 */
TEST(GoldenDigest, EverySchedulerOverLongLoadShiftingRuns)
{
    const Node fleet = fleetShapedNode();
    const Node fig13(
        machine::MachineConfig::xeonE52630v4(),
        {lcWith(apps::xapian(), std::shared_ptr<trace::LoadTrace>(
                                    trace::fig13XapianTrace())),
         lcAt(apps::moses(), 0.2), lcAt(apps::imgDnn(), 0.2),
         be(apps::stream())});
    struct Case
    {
        std::string name;
        const Node *node;
        std::vector<std::pair<std::string, std::uint64_t>> golden;
    };
    const std::vector<Case> cases{
        {"fleet-node",
         &fleet,
         {{"Unmanaged", 0xb069d600b1d19447ULL},
          {"LC-first", 0x1ba8c12584df4f15ULL},
          {"PARTIES", 0xa5e09274e8233d7fULL},
          {"CLITE", 0x77ee40305e043ad1ULL},
          {"ARQ", 0x8a1c269a5d28e4f4ULL},
          {"Heracles", 0x468eafe97651e942ULL},
          {"CoPart", 0x9bbde0729beb9e47ULL}}},
        {"fig13-node",
         &fig13,
         {{"Unmanaged", 0x5a648c3bd5b9cee3ULL},
          {"LC-first", 0x6d41275396a917f3ULL},
          {"PARTIES", 0x3b0ccc07c01cdfb8ULL},
          {"CLITE", 0x1be1c0d11481055bULL},
          {"ARQ", 0xd2f31efafb748bb9ULL},
          {"Heracles", 0xf6f55639b71732f7ULL},
          {"CoPart", 0x35cc5bddb110e76bULL}}}};

    bool re_explored = false, reverted = false;
    for (const Case &c : cases) {
        ASSERT_EQ(c.golden.size(), sched::allStrategyNames().size());
        for (const auto &[name, digest] : c.golden) {
            obs::BufferTraceSink sink;
            SimulationConfig cfg = baseConfig();
            cfg.durationSeconds = 1200.0;
            cfg.obs.sink = &sink;
            auto s = sched::makeScheduler(name);
            const auto res = EpochSimulator(*c.node, cfg).run(*s);
            ASSERT_EQ(res.epochs.size(), 2400u);
            const std::string bytes = sink.str();
            if (name == "CLITE")
                re_explored |= bytes.find("\"action\":\"re_explore\"") !=
                    std::string::npos;
            if (name == "PARTIES")
                reverted |= bytes.find("\"action\":\"revert\"") !=
                    std::string::npos;
            Fnv h;
            add(h, res);
            addOutputs(h, sink);
            expectDigest(c.name + "@2400/" + name, h, digest);
        }
    }
    EXPECT_TRUE(re_explored) << "no CLITE load-shift re-exploration";
    EXPECT_TRUE(reverted) << "no PARTIES trial revert";
}

TEST(GoldenDigest, FleetShapedArqSampledTraceWithSeries)
{
    obs::BufferTraceSink sink;
    obs::TimeSeriesRegistry series;
    SimulationConfig cfg = baseConfig();
    cfg.obs.sink = &sink;
    cfg.obs.series = &series;
    cfg.obs.scenario = "sampled";
    cfg.traceSampleRate = 0.3;
    auto s = sched::makeScheduler("ARQ");
    const auto res = EpochSimulator(fleetShapedNode(), cfg).run(*s);
    Fnv h;
    add(h, res);
    addOutputs(h, sink, &series);
    expectDigest("fleet-node/sampled+series", h,
                 0xf17c024a470cc723ULL);
}

TEST(GoldenDigest, FleetShapedArqAttributionAndSlo)
{
    obs::BufferTraceSink sink;
    SimulationConfig cfg = baseConfig();
    cfg.durationSeconds = 120.0;
    cfg.obs.sink = &sink;
    cfg.attribute = true;
    cfg.slo = true;
    auto s = sched::makeScheduler("ARQ");
    const auto res = EpochSimulator(fleetShapedNode(), cfg).run(*s);
    ASSERT_FALSE(res.attribution.empty());
    Fnv h;
    add(h, res);
    addOutputs(h, sink);
    expectDigest("fleet-node/attribution+slo", h,
                 0xdfb76c8ee1c15102ULL);
}

TEST(GoldenDigest, FleetShapedArqAuditLogUnderChaos)
{
    const fault::FaultPlan plan = fault::FaultPlan::builtinChaos();
    obs::BufferTraceSink sink;
    SimulationConfig cfg = baseConfig();
    cfg.obs.sink = &sink;
    cfg.checkMode = check::Mode::Log;
    cfg.faults = &plan;
    auto s = sched::makeScheduler("ARQ");
    const auto res = EpochSimulator(fleetShapedNode(), cfg).run(*s);
    Fnv h;
    add(h, res);
    addOutputs(h, sink);
    expectDigest("fleet-node/audit+chaos", h,
                 0xd8177d61cfa6d212ULL);
}

TEST(GoldenDigest, FleetShapedArqPlainWithoutRecords)
{
    SimulationConfig cfg = baseConfig();
    cfg.keepEpochs = false;
    auto s = sched::makeScheduler("ARQ");
    const auto res = EpochSimulator(fleetShapedNode(), cfg).run(*s);
    ASSERT_TRUE(res.epochs.empty());
    Fnv h;
    add(h, res);
    expectDigest("fleet-node/plain", h, 0x9bb13bae7436a281ULL);
}

TEST(GoldenDigest, SwitchedArqParties)
{
    obs::BufferTraceSink sink;
    SimulationConfig cfg = baseConfig();
    cfg.obs.sink = &sink;
    auto arq = sched::makeScheduler("ARQ");
    auto parties = sched::makeScheduler("PARTIES");
    PolicySchedule schedule;
    schedule.blockEpochs = 20;
    schedule.blockArm = {0, 1, 1, 0, 1, 0};
    const auto res = EpochSimulator(fleetShapedNode(), cfg)
                         .runSwitched({arq.get(), parties.get()},
                                      schedule);
    Fnv h;
    add(h, res);
    addOutputs(h, sink);
    expectDigest("switched/ARQ+PARTIES", h,
                 0xa797e749e840887aULL);
}

TEST(GoldenDigest, FleetWithNodeCrashAtOneAndFourThreads)
{
    std::istringstream directives(
        R"({"fault":"node_crash","node":2,"at_s":25})");
    const auto plan = fault::FaultPlan::fromStream(directives, "crash");
    for (const int threads : {1, 4}) {
        const auto gen = fleetLoad(8);
        Fleet fleet;
        for (int n = 0; n < 8; ++n)
            fleet.addNode(Node(machine::MachineConfig::xeonE52630v4(),
                               fleetNodeApps(gen, n)),
                          sched::makeScheduler("ARQ"));
        obs::BufferTraceSink sink;
        SimulationConfig cfg = baseConfig();
        cfg.obs.sink = &sink;
        cfg.faults = &plan;
        exec::ThreadPool pool(threads);
        const auto res = fleet.run(cfg, &pool);
        ASSERT_EQ(res.crashedNodes, std::vector<int>{2});
        Fnv h;
        h.u(res.nodes.size());
        for (const auto &node : res.nodes)
            add(h, node);
        for (const double v : {res.eLc, res.eBe, res.eS, res.yieldValue})
            h.d(v);
        h.i(res.violations);
        h.i(res.failovers);
        add(h, res.attribution);
        add(h, res.slo);
        addOutputs(h, sink);
        expectDigest("fleet/crash@" + std::to_string(threads), h,
                     0xf33107edcafdb014ULL);
    }
}

TEST(GoldenDigest, TaggedScenarioBatchAtOneAndFourThreads)
{
    for (const int threads : {1, 4}) {
        std::vector<exec::ScenarioJob> jobs;
        for (const std::string name : {"PARTIES", "CLITE", "ARQ"}) {
            SimulationConfig cfg = baseConfig();
            cfg.durationSeconds = 20.0;
            cfg.warmupEpochs = 8;
            cfg.attribute = true;
            jobs.push_back({name, canonicalNode(), cfg, name + "@canonical"});
            cfg.seed = 7;
            jobs.push_back({name, fleetShapedNode(), cfg, name + "@fleet"});
        }
        obs::BufferTraceSink sink;
        obs::TimeSeriesRegistry series;
        obs::MetricsRegistry metrics;
        obs::SpanProfiler prof;
        obs::Scope scope;
        scope.sink = &sink;
        scope.series = &series;
        scope.metrics = &metrics;
        scope.prof = &prof;
        exec::ThreadPool pool(threads);
        exec::ScenarioRunner runner(&pool);
        runner.setObsScope(scope);
        const auto results = runner.run(jobs);
        Fnv h;
        h.u(results.size());
        for (const auto &res : results)
            add(h, res);
        addOutputs(h, sink, &series);
        // Span structure and counts are deterministic; wall time is not.
        for (const auto &[path, st] : prof.snapshot()) {
            h.s(path);
            h.u(st.count);
        }
        // Counter totals commute across workers; the histograms
        // carry wall time and are left out.
        std::ostringstream dump;
        metrics.print(dump);
        std::istringstream lines(dump.str());
        for (std::string line; std::getline(lines, line);)
            if (line.rfind("counter ", 0) == 0)
                h.s(line);
        expectDigest("runner/tagged-batch@" + std::to_string(threads), h,
                     0xcbbfe6796ff38fccULL);
    }
}

TEST(GoldenDigest, ClusterRoundsWithAttribution)
{
    const auto gen = fleetLoad(8);
    ClusterConfig cc;
    cc.rounds = 3;
    ClusterScheduler cs(cc, "ARQ");
    for (int n = 0; n < 8; ++n)
        cs.addNode(machine::MachineConfig::xeonE52630v4(),
                   fleetNodeApps(gen, n));
    obs::BufferTraceSink sink;
    SimulationConfig cfg = baseConfig();
    cfg.obs.sink = &sink;
    cfg.attribute = true;
    exec::ThreadPool pool(2);
    const auto res = cs.run(cfg, &pool);
    Fnv h;
    h.ds(res.roundES);
    h.ds(res.roundSpread);
    for (const double v : {res.eLc, res.eBe, res.eS, res.yieldValue})
        h.d(v);
    h.i(res.violations);
    h.u(res.migrations.size());
    for (const auto &m : res.migrations) {
        h.i(m.round);
        h.i(m.fromNode);
        h.i(m.toNode);
        h.s(m.app);
    }
    h.ds(res.finalNodeES);
    h.u(res.finalAppsPerNode.size());
    for (const int a : res.finalAppsPerNode)
        h.i(a);
    add(h, res.attribution);
    add(h, res.slo);
    addOutputs(h, sink);
    expectDigest("cluster/3-rounds+attribution", h,
                 0x322b2b9f31d8c2bcULL);
}

TEST(GoldenDigest, SwitchbackExperiment)
{
    experiment::ExperimentRunConfig cfg;
    cfg.design.kind = experiment::DesignKind::Switchback;
    cfg.design.armA = "ARQ";
    cfg.design.armB = "PARTIES";
    cfg.design.numNodes = 4;
    cfg.design.blocksPerNode = 4;
    cfg.design.blockEpochs = 10;
    cfg.design.seed = 42;
    cfg.estimator.resamples = 200;
    cfg.base.seed = 42;
    cfg.base.checkMode = check::Mode::Off;
    obs::BufferTraceSink sink;
    cfg.base.obs.sink = &sink;
    cfg.base.obs.scenario = "exp";
    exec::ThreadPool pool(2);
    const auto res = experiment::runExperiment(cfg, &pool);
    Fnv h;
    h.u(res.blocks.size());
    for (const auto &b : res.blocks) {
        h.i(b.node);
        h.i(b.block);
        h.i(b.arm);
        h.i(b.epochs);
        for (const double v :
             {b.meanES, b.meanP95Ms, b.meanQueue, b.meanArrivalRate,
              b.startQueue, b.violRate})
            h.d(v);
    }
    for (const auto *m :
         {&res.estimates.es, &res.estimates.p95Ms,
          &res.estimates.violations}) {
        for (const auto *c : {&m->naive, &m->dq, &m->mixed}) {
            h.d(c->estimate);
            h.d(c->lo);
            h.d(c->hi);
        }
        h.d(m->alpha);
    }
    h.i(res.estimates.blocksA);
    h.i(res.estimates.blocksB);
    h.i(static_cast<int>(res.verdict));
    h.i(res.policySwaps);
    addOutputs(h, sink);
    expectDigest("experiment/switchback", h,
                 0x928b74331603d3d4ULL);
}

} // namespace
