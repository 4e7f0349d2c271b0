/**
 * @file
 * SLO burn-rate monitor: raise/clear mechanics with hysteresis,
 * summary accounting and merging, and the simulator integration —
 * alert events bypass trace sampling exactly like `violation`.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>

#include "apps/catalog.hh"
#include "cluster/epoch_sim.hh"
#include "obs/metrics.hh"
#include "obs/scope.hh"
#include "obs/slo.hh"
#include "obs/trace_reader.hh"
#include "sched/registry.hh"
#include "stats/rng.hh"

namespace
{

using namespace ahq;

obs::SloTraits
tightTraits()
{
    obs::SloTraits t;
    t.targetAvailability = 0.9; // budget 0.1
    t.fastWindowEpochs = 4;
    t.slowWindowEpochs = 8;
    t.burnThreshold = 1.0;
    t.clearRatio = 0.5;
    return t;
}

TEST(SloMonitor, RaisesAfterFullFastWindowAndClearsWithHysteresis)
{
    obs::SloMonitor mon(1, tightTraits());

    // Three violating epochs: burning hard, but the fast window is
    // not full yet — no raise on partial evidence.
    for (int e = 0; e < 3; ++e) {
        const auto tr = mon.observe(0, e, true);
        EXPECT_EQ(tr.kind, obs::SloAlertTransition::Kind::None);
        EXPECT_FALSE(mon.active(0));
    }

    // Fourth violation fills the fast window: burn = (4/4)/0.1 = 10
    // in both windows, alert raises.
    const auto raise = mon.observe(0, 3, true);
    EXPECT_EQ(raise.kind, obs::SloAlertTransition::Kind::Raise);
    EXPECT_DOUBLE_EQ(raise.burnFast, 10.0);
    EXPECT_DOUBLE_EQ(raise.burnSlow, 10.0);
    EXPECT_TRUE(mon.active(0));

    // Healthy epochs drain the windows. The fast window empties at
    // epoch 7, but the slow window still holds the 4 violations —
    // hysteresis keeps the alert up until BOTH drop below
    // threshold * clearRatio.
    for (int e = 4; e < 11; ++e) {
        const auto tr = mon.observe(0, e, false);
        EXPECT_EQ(tr.kind, obs::SloAlertTransition::Kind::None)
            << "epoch " << e;
        EXPECT_TRUE(mon.active(0)) << "epoch " << e;
    }

    // Epoch 11: the last violation retires from the slow window,
    // both burns hit 0 — clear, with the alert's full duration.
    const auto clear = mon.observe(0, 11, false);
    EXPECT_EQ(clear.kind, obs::SloAlertTransition::Kind::Clear);
    EXPECT_DOUBLE_EQ(clear.burnFast, 0.0);
    EXPECT_DOUBLE_EQ(clear.burnSlow, 0.0);
    EXPECT_EQ(clear.durationEpochs, 8);
    EXPECT_FALSE(mon.active(0));

    const auto s = mon.summary();
    EXPECT_EQ(s.raises, 1);
    EXPECT_EQ(s.clears, 1);
    EXPECT_EQ(s.activeAtEnd, 0);
    EXPECT_EQ(s.alertEpochs, 8); // epochs 3..10 under the alert
    EXPECT_DOUBLE_EQ(s.worstBurn, 10.0);
}

TEST(SloMonitor, NoAlertBelowThreshold)
{
    // One violation in ten epochs: the fast window peaks at burn
    // (1/4)/0.1 = 2.5, below the threshold — and the early single-
    // violation spike (burn 10 at one observation) is masked by the
    // full-fast-window guard. No raise, ever.
    obs::SloTraits t = tightTraits();
    t.burnThreshold = 3.0;
    obs::SloMonitor mon(1, t);
    for (int e = 0; e < 40; ++e) {
        const auto tr = mon.observe(0, e, e % 10 == 0);
        EXPECT_EQ(tr.kind, obs::SloAlertTransition::Kind::None);
    }
    EXPECT_EQ(mon.summary().raises, 0);
    EXPECT_EQ(mon.summary().alertEpochs, 0);
}

TEST(SloMonitor, BoundaryEpochDoesNotFlap)
{
    // Alternate violating/healthy epochs around the threshold: once
    // raised, the alert must not clear at the first dip below the
    // raise threshold (that is what clearRatio < 1 buys).
    obs::SloMonitor mon(1, tightTraits());
    int transitions = 0;
    for (int e = 0; e < 64; ++e) {
        const auto tr = mon.observe(0, e, e % 2 == 0);
        if (tr.kind != obs::SloAlertTransition::Kind::None)
            ++transitions;
    }
    // Burn oscillates around 5 — far above clear_at = 0.5 — so the
    // one raise never clears.
    EXPECT_EQ(transitions, 1);
    EXPECT_TRUE(mon.active(0));
    EXPECT_EQ(mon.summary().activeAtEnd, 1);
}

TEST(SloMonitor, PerAppStateIsIndependent)
{
    obs::SloMonitor mon(2, tightTraits());
    for (int e = 0; e < 8; ++e) {
        mon.observe(0, e, true);  // app 0 burns
        mon.observe(1, e, false); // app 1 healthy
    }
    EXPECT_TRUE(mon.active(0));
    EXPECT_FALSE(mon.active(1));
    EXPECT_EQ(mon.summary().raises, 1);
}

/**
 * Every burn rate and transition of long seeded violation streams,
 * over six window shapes, folded word by word into one FNV-1a-64
 * digest. The windows wrap thousands of times, so a slip in the ring
 * indices or in the full-window burn tables moves the digest.
 */
TEST(SloMonitor, BurnRateBitsArePinned)
{
    std::uint64_t h = 14695981039346656037ULL;
    auto fold = [&h](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        h = (h ^ bits) * 1099511628211ULL;
    };
    for (int shape = 0; shape < 6; ++shape) {
        obs::SloTraits t;
        t.fastWindowEpochs = 3 + shape * 5;
        t.slowWindowEpochs = t.fastWindowEpochs + 1 + shape * 17;
        t.targetAvailability = 0.9 + 0.015 * shape;
        stats::Rng rng(7 + static_cast<std::uint64_t>(shape));
        obs::SloMonitor m(3, t);
        for (int e = 0; e < 20000; ++e) {
            for (int a = 0; a < 3; ++a) {
                // Each app takes turns at a bursty violation rate.
                const double p = 0.02 + 0.3 * ((e / 997) % 3 == a);
                const auto tr = m.observe(a, e, rng.bernoulli(p));
                fold(tr.burnFast);
                fold(tr.burnSlow);
                fold(static_cast<double>(tr.kind));
                fold(tr.durationEpochs);
            }
        }
        const obs::SloSummary s = m.summary();
        for (const double v :
             {s.worstBurn, static_cast<double>(s.raises),
              static_cast<double>(s.clears),
              static_cast<double>(s.alertEpochs),
              static_cast<double>(s.activeAtEnd)})
            fold(v);
    }
    EXPECT_EQ(h, 0xd67bf0725ba3e6c2ULL)
        << "SLO digest is now 0x" << std::hex << h;
}

TEST(SloSummary, MergeSumsAndKeepsWorstBurn)
{
    obs::SloSummary a, b;
    a.raises = 2;
    a.clears = 1;
    a.activeAtEnd = 1;
    a.alertEpochs = 30;
    a.worstBurn = 4.0;
    b.raises = 1;
    b.clears = 1;
    b.activeAtEnd = 0;
    b.alertEpochs = 5;
    b.worstBurn = 9.0;

    obs::SloSummary ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab.raises, 3);
    EXPECT_EQ(ab.clears, 2);
    EXPECT_EQ(ab.activeAtEnd, 1);
    EXPECT_EQ(ab.alertEpochs, 35);
    EXPECT_DOUBLE_EQ(ab.worstBurn, 9.0);
    EXPECT_EQ(ba.raises, ab.raises);
    EXPECT_DOUBLE_EQ(ba.worstBurn, ab.worstBurn);
}

// ---- simulator integration ------------------------------------------

cluster::SimulationConfig
sloConfig(std::uint64_t seed)
{
    cluster::SimulationConfig c;
    c.durationSeconds = 20.0;
    c.warmupEpochs = 10;
    c.seed = seed;
    c.slo = true;
    c.sloTraits = tightTraits();
    return c;
}

TEST(SloIntegration, OverloadedRunRaisesAndCountsAlerts)
{
    // xapian at 0.9 load under an unmanaged colocation with STREAM
    // violates its QoS target persistently: the alert must raise
    // and the slo.* counters must mirror the summary.
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.9),
                        cluster::be(apps::stream())});
    obs::MetricsRegistry metrics;
    cluster::SimulationConfig cfg = sloConfig(5);
    cfg.obs.metrics = &metrics;
    const auto unmanaged = sched::makeScheduler("Unmanaged");
    cluster::EpochSimulator sim(node, cfg);
    const auto res = sim.run(*unmanaged);

    EXPECT_GE(res.slo.raises, 1);
    EXPECT_GT(res.slo.alertEpochs, 0);
    EXPECT_GE(res.slo.worstBurn, cfg.sloTraits.burnThreshold);
    EXPECT_DOUBLE_EQ(metrics.counter("slo.alert_raised"),
                     static_cast<double>(res.slo.raises));
    EXPECT_DOUBLE_EQ(metrics.counter("slo.alert_cleared"),
                     static_cast<double>(res.slo.clears));
    EXPECT_DOUBLE_EQ(metrics.counter("slo.alert_epochs"),
                     static_cast<double>(res.slo.alertEpochs));
}

TEST(SloIntegration, AlertEventsBypassTraceSampling)
{
    // With the sample rate at 0 every epoch-scoped event is
    // dropped, but alert transitions — like `violation` — must
    // still land in the trace.
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.9),
                        cluster::be(apps::stream())});
    obs::BufferTraceSink sink;
    cluster::SimulationConfig cfg = sloConfig(5);
    cfg.obs.sink = &sink;
    cfg.traceSampleRate = 0.0;
    const auto unmanaged = sched::makeScheduler("Unmanaged");
    cluster::EpochSimulator sim(node, cfg);
    const auto res = sim.run(*unmanaged);
    ASSERT_GE(res.slo.raises, 1);

    std::istringstream in(sink.str());
    std::size_t epochs = 0, raises = 0, clears = 0;
    for (const auto &ev : obs::readTrace(in)) {
        if (ev.type() == "epoch")
            ++epochs;
        if (ev.type() == "alert_raise") {
            ++raises;
            EXPECT_FALSE(ev.str("app").empty());
            EXPECT_GE(ev.num("burn_fast"),
                      cfg.sloTraits.burnThreshold);
        }
        if (ev.type() == "alert_clear")
            ++clears;
    }
    EXPECT_EQ(epochs, 0u);
    EXPECT_EQ(raises, static_cast<std::size_t>(res.slo.raises));
    EXPECT_EQ(clears, static_cast<std::size_t>(res.slo.clears));
}

TEST(SloIntegration, DisabledSloLeavesSummaryAndTraceUntouched)
{
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.9),
                        cluster::be(apps::stream())});
    obs::BufferTraceSink sink;
    cluster::SimulationConfig cfg = sloConfig(5);
    cfg.slo = false;
    cfg.obs.sink = &sink;
    const auto unmanaged = sched::makeScheduler("Unmanaged");
    cluster::EpochSimulator sim(node, cfg);
    const auto res = sim.run(*unmanaged);
    EXPECT_EQ(res.slo.raises, 0);
    EXPECT_EQ(res.slo.alertEpochs, 0);
    EXPECT_EQ(sink.str().find("alert_raise"), std::string::npos);
}

} // namespace
