/**
 * @file
 * InvariantAuditor unit tests: mode parsing, the check registry,
 * detection of broken layouts / entropy reports, strict-mode
 * throwing and the log-mode telemetry (counter + JSONL event).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <stdexcept>

#include "apps/catalog.hh"
#include "check/auditor.hh"
#include "check/check.hh"
#include "cluster/epoch_sim.hh"
#include "machine/layout.hh"
#include "obs/scope.hh"
#include "sched/arq.hh"
#include "sched/registry.hh"

namespace
{

using namespace ahq;
using check::InvariantAuditor;
using check::InvariantViolation;
using check::Mode;

TEST(CheckMode, ParsesNames)
{
    EXPECT_EQ(check::modeFromString("off"), Mode::Off);
    EXPECT_EQ(check::modeFromString(""), Mode::Off);
    EXPECT_EQ(check::modeFromString("log"), Mode::Log);
    EXPECT_EQ(check::modeFromString("strict"), Mode::Strict);
    EXPECT_EQ(check::modeFromString("STRICT"), Mode::Strict);
    EXPECT_EQ(check::modeFromString("Log"), Mode::Log);
    EXPECT_THROW(check::modeFromString("yes"),
                 std::invalid_argument);
    EXPECT_STREQ(check::toString(Mode::Strict), "strict");
}

TEST(CheckMode, ReadsEnvironmentEachCall)
{
    ::unsetenv("AHQ_CHECK");
    EXPECT_EQ(check::modeFromEnv(), Mode::Off);
    ::setenv("AHQ_CHECK", "strict", 1);
    EXPECT_EQ(check::modeFromEnv(), Mode::Strict);
    ::setenv("AHQ_CHECK", "log", 1);
    EXPECT_EQ(check::modeFromEnv(), Mode::Log);
    ::unsetenv("AHQ_CHECK");
    EXPECT_EQ(check::modeFromEnv(), Mode::Off);
}

TEST(CheckRegistry, NamesAreUniqueAndResolvable)
{
    const auto &checks = check::registeredChecks();
    EXPECT_GE(checks.size(), 10u);
    std::set<std::string> names;
    for (const auto &c : checks) {
        EXPECT_TRUE(names.insert(c.name).second)
            << "duplicate check " << c.name;
        EXPECT_FALSE(c.summary.empty()) << c.name;
        EXPECT_TRUE(check::isRegisteredCheck(c.name));
    }
    EXPECT_TRUE(check::isRegisteredCheck("capacity.conserved"));
    EXPECT_FALSE(check::isRegisteredCheck("capacity.nope"));
}

/** A layout whose single shared region oversubscribes the node. */
machine::RegionLayout
oversubscribedLayout()
{
    machine::RegionLayout layout(machine::ResourceVector{4, 8, 4});
    machine::Region r;
    r.name = "shared";
    r.shared = true;
    r.members = {0};
    r.res = machine::ResourceVector{10, 20, 10};
    layout.addRegion(std::move(r));
    return layout;
}

TEST(Auditor, OffModeIsInert)
{
    InvariantAuditor auditor(Mode::Off);
    EXPECT_FALSE(auditor.enabled());
    auditor.checkLayout(oversubscribedLayout(), 0, 0.0);
    EXPECT_EQ(auditor.violationCount(), 0u);
    EXPECT_TRUE(auditor.violations().empty());
}

TEST(Auditor, DetectsOversubscription)
{
    InvariantAuditor auditor(Mode::Log);
    auditor.checkLayout(oversubscribedLayout(), 3, 1.5);
    ASSERT_EQ(auditor.violationCount(), 1u);
    const auto &v = auditor.violations().front();
    EXPECT_EQ(v.check, "capacity.fits");
    EXPECT_EQ(v.epoch, 3);
    EXPECT_EQ(v.time, 1.5);
    EXPECT_TRUE(check::isRegisteredCheck(v.check));
}

TEST(Auditor, DetectsMultiMemberIsolatedRegion)
{
    machine::RegionLayout layout(machine::ResourceVector{8, 8, 8});
    machine::Region r;
    r.name = "iso";
    r.shared = false;
    r.members = {0, 1};
    r.res = machine::ResourceVector{4, 4, 4};
    layout.addRegion(std::move(r));

    InvariantAuditor auditor(Mode::Log);
    auditor.checkLayout(layout, 0, 0.0);
    ASSERT_EQ(auditor.violationCount(), 1u);
    EXPECT_EQ(auditor.violations().front().check,
              "capacity.region_shape");
}

TEST(Auditor, DetectsUnreachableApp)
{
    machine::RegionLayout layout(machine::ResourceVector{8, 8, 8});
    machine::Region r;
    r.name = "iso0";
    r.shared = false;
    r.members = {0};
    r.res = machine::ResourceVector{2, 0, 1}; // no LLC way
    layout.addRegion(std::move(r));

    InvariantAuditor auditor(Mode::Log);
    auditor.checkLayout(layout, 0, 0.0);
    ASSERT_EQ(auditor.violationCount(), 1u);
    EXPECT_EQ(auditor.violations().front().check,
              "capacity.reachable");
}

TEST(Auditor, StrictModeThrowsWithViolationAttached)
{
    InvariantAuditor auditor(Mode::Strict);
    try {
        auditor.checkLayout(oversubscribedLayout(), 7, 3.5);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation &e) {
        EXPECT_EQ(e.violation().check, "capacity.fits");
        EXPECT_EQ(e.violation().epoch, 7);
        EXPECT_NE(std::string(e.what()).find("capacity.fits"),
                  std::string::npos);
    }
    // The violation is recorded even though it threw.
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(Auditor, DetectsEntropyOutOfRangeAndBadWeighting)
{
    obs::BufferTraceSink sink;
    obs::MetricsRegistry metrics;
    obs::Scope scope;
    scope.sink = &sink;
    scope.metrics = &metrics;

    core::EntropyReport rep;
    rep.eLc = 0.5;
    rep.eBe = 0.5;
    rep.eS = 1.5; // out of range AND != 0.8*0.5 + 0.2*0.5
    InvariantAuditor auditor(Mode::Log, scope);
    auditor.checkEntropy(rep, 0.8, true, true, 4, 2.0);

    EXPECT_EQ(auditor.violationCount(), 2u);
    EXPECT_EQ(auditor.violations()[0].check, "entropy.range");
    EXPECT_EQ(auditor.violations()[1].check, "entropy.weighting");
    EXPECT_EQ(metrics.counter("check.violations"), 2.0);
    EXPECT_EQ(metrics.counter("check.violations.entropy.range"),
              1.0);

    // Violations are schema-stamped JSONL events.
    const auto lines = sink.lines();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"v\":1"), std::string::npos);
    EXPECT_NE(lines[0].find("\"type\":\"violation\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"check\":\"entropy.range\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"epoch\":4"), std::string::npos);
}

TEST(Auditor, DetectsSimultaneousRetAndQ)
{
    core::EntropyReport rep; // eLc = eBe = eS = 0: weighting holds
    core::LcBreakdown b;
    b.tolerance = 0.5;
    b.interference = 0.3;
    b.remainingTolerance = 0.2; // fine so far...
    b.intolerable = 0.4;        // ...but Q > 0 with ReT > 0
    rep.lcDetail.push_back(b);

    InvariantAuditor auditor(Mode::Log);
    auditor.checkEntropy(rep, 0.8, true, true, 0, 0.0);
    ASSERT_GE(auditor.violationCount(), 1u);
    for (const auto &v : auditor.violations())
        EXPECT_EQ(v.check, "entropy.ret_q_exclusive");
}

TEST(Auditor, DegenerateClassWeightingIsEnforced)
{
    // With zero BE apps Eq. 7 degenerates to E_S = E_LC; an
    // RI-weighted E_S would under-report interference by 20%.
    core::EntropyReport rep;
    rep.eLc = 0.4;
    rep.eBe = 0.0;
    rep.eS = 0.4;
    InvariantAuditor ok(Mode::Log);
    ok.checkEntropy(rep, 0.8, true, false, 0, 0.0);
    EXPECT_EQ(ok.violationCount(), 0u);

    rep.eS = 0.8 * 0.4; // the Eq. 7 formula applied blindly
    InvariantAuditor bad(Mode::Log);
    bad.checkEntropy(rep, 0.8, true, false, 0, 0.0);
    ASSERT_EQ(bad.violationCount(), 1u);
    EXPECT_EQ(bad.violations().front().check, "entropy.weighting");
}

TEST(Auditor, RecordCapBoundsMemoryNotTheCount)
{
    InvariantAuditor auditor(Mode::Log);
    const auto bad = oversubscribedLayout();
    for (int i = 0; i < 300; ++i)
        auditor.checkLayout(bad, i, 0.0);
    EXPECT_EQ(auditor.violationCount(), 300u);
    EXPECT_EQ(auditor.violations().size(), 256u);
}

// ---- end-to-end: the real simulator under audit -----------------

TEST(AuditorSim, ArqRollbacksAndBansStayLegal)
{
    // An overloaded node makes ARQ move, roll back and ban; the
    // auditor independently re-derives the FSM rules and must see
    // the real controller obey all of them.
    cluster::Node node(
        machine::MachineConfig::xeonE52630v4().withAvailable(6, 12,
                                                             6),
        {cluster::lcAt(apps::xapian(), 0.8),
         cluster::lcAt(apps::moses(), 0.7),
         cluster::be(apps::stream())});
    obs::MetricsRegistry metrics;
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 60.0;
    cfg.warmupEpochs = 10;
    cfg.checkMode = Mode::Strict;
    cfg.obs.metrics = &metrics;

    sched::Arq arq;
    cluster::EpochSimulator sim(node, cfg);
    EXPECT_NO_THROW(sim.run(arq));
    EXPECT_EQ(metrics.counter("check.violations"), 0.0);
    // The run actually exercised the audited transitions.
    EXPECT_GT(metrics.counter("arq.move"), 0.0);
}

TEST(AuditorSim, AllBannedVictimsEpochsHold)
{
    // The 60 s ban outlasts this 60 s run, so every rolled-back
    // victim stays banned for the rest of it; ARQ must keep holding
    // (victim == kNoRegion) instead of violating a ban.
    sched::Arq arq;

    cluster::Node node(
        machine::MachineConfig::xeonE52630v4().withAvailable(4, 8,
                                                             4),
        {cluster::lcAt(apps::xapian(), 0.9),
         cluster::lcAt(apps::sphinx(), 0.8),
         cluster::be(apps::stream())});
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 60.0;
    cfg.warmupEpochs = 10;
    cfg.checkMode = Mode::Strict;

    cluster::EpochSimulator sim(node, cfg);
    EXPECT_NO_THROW(sim.run(arq));
}

TEST(AuditorSim, LcOnlyAndBeOnlyNodesAudited)
{
    // Degenerate single-class colocations (Eq. 7 edge cases) must
    // pass the strict audit under every registered scheduler.
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 15.0;
    cfg.warmupEpochs = 5;
    cfg.checkMode = Mode::Strict;

    cluster::Node lc_only(
        machine::MachineConfig::xeonE52630v4().withAvailable(6, 12,
                                                             6),
        {cluster::lcAt(apps::xapian(), 0.5),
         cluster::lcAt(apps::imgDnn(), 0.4)});
    cluster::Node be_only(
        machine::MachineConfig::xeonE52630v4().withAvailable(6, 12,
                                                             6),
        {cluster::be(apps::fluidanimate()),
         cluster::be(apps::streamcluster())});

    for (const auto &name : sched::allStrategyNames()) {
        auto s = sched::makeScheduler(name);
        EXPECT_NO_THROW(
            cluster::EpochSimulator(lc_only, cfg).run(*s))
            << name << " on the LC-only node";
        auto s2 = sched::makeScheduler(name);
        EXPECT_NO_THROW(
            cluster::EpochSimulator(be_only, cfg).run(*s2))
            << name << " on the BE-only node";
    }
}

} // namespace
