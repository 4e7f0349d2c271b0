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
#include <vector>

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

// The policy is fixed (slo.cc): a 0.99 availability target (budget
// 0.01), 12- and 96-epoch windows, raise at burn 2.0 in both, clear
// below 1.0 in both.
constexpr double kBurnThreshold = 2.0;

// The burn of a window that violates in every epoch, (n / n) /
// (1 - 0.99), as slo.cc computes it: 6 ulp below 100, since the
// budget 1 - 0.99 rounds above 0.01.
constexpr double kFullBurn = 1.0 / (1.0 - 0.99);

/**
 * An SloMonitor that keeps each app's alert state as observe()'s
 * transitions report it: a Raise sets it (and must find it clear),
 * a Clear resets it (and must find it set).
 */
struct WatchedMonitor
{
    explicit WatchedMonitor(int apps) : mon(apps), alerts(apps, false)
    {
    }

    obs::SloAlertTransition observe(int app, int epoch, bool violated)
    {
        const auto tr = mon.observe(app, epoch, violated);
        const auto a = static_cast<std::size_t>(app);
        if (tr.kind == obs::SloAlertTransition::Kind::Raise) {
            EXPECT_FALSE(alerts[a]) << "raise while raised";
            alerts[a] = true;
        } else if (tr.kind == obs::SloAlertTransition::Kind::Clear) {
            EXPECT_TRUE(alerts[a]) << "clear while clear";
            alerts[a] = false;
        }
        return tr;
    }

    bool raised(int app) const
    {
        return alerts[static_cast<std::size_t>(app)];
    }

    obs::SloSummary summary() const { return mon.summary(); }

    obs::SloMonitor mon;
    std::vector<bool> alerts;
};

TEST(SloMonitor, RaisesAfterFullFastWindowAndClearsWithHysteresis)
{
    WatchedMonitor mon(1);

    // Eleven violating epochs: burning hard, but the fast window is
    // not full yet — no raise on partial evidence.
    for (int e = 0; e < 11; ++e) {
        const auto tr = mon.observe(0, e, true);
        EXPECT_EQ(tr.kind, obs::SloAlertTransition::Kind::None);
        EXPECT_FALSE(mon.raised(0));
    }

    // The twelfth violation fills the fast window: burn = (12/12) /
    // 0.01 = 100 in both windows (the slow one over the 12 epochs
    // seen so far), alert raises.
    const auto raise = mon.observe(0, 11, true);
    EXPECT_EQ(raise.kind, obs::SloAlertTransition::Kind::Raise);
    EXPECT_EQ(raise.burnFast, kFullBurn);
    EXPECT_EQ(raise.burnSlow, kFullBurn);
    EXPECT_TRUE(mon.raised(0));

    // Healthy epochs drain the windows. The fast window empties at
    // epoch 23, but the slow window still holds violations until
    // epoch 107 — hysteresis keeps the alert up until BOTH drop
    // below threshold * clear ratio (one violation in 96 epochs
    // still burns at 1.04).
    for (int e = 12; e < 107; ++e) {
        const auto tr = mon.observe(0, e, false);
        EXPECT_EQ(tr.kind, obs::SloAlertTransition::Kind::None)
            << "epoch " << e;
        EXPECT_TRUE(mon.raised(0)) << "epoch " << e;
    }

    // Epoch 107: the last violation retires from the slow window,
    // both burns hit 0 — clear, with the alert's full duration.
    const auto clear = mon.observe(0, 107, false);
    EXPECT_EQ(clear.kind, obs::SloAlertTransition::Kind::Clear);
    EXPECT_DOUBLE_EQ(clear.burnFast, 0.0);
    EXPECT_DOUBLE_EQ(clear.burnSlow, 0.0);
    EXPECT_EQ(clear.durationEpochs, 96);
    EXPECT_FALSE(mon.raised(0));

    const auto s = mon.summary();
    EXPECT_EQ(s.raises, 1);
    EXPECT_EQ(s.clears, 1);
    EXPECT_EQ(s.activeAtEnd, 0);
    EXPECT_EQ(s.alertEpochs, 96); // epochs 11..106 under the alert
    EXPECT_EQ(s.worstBurn, kFullBurn);
}

TEST(SloMonitor, NoAlertBelowThreshold)
{
    // One violation in a hundred epochs: each one lifts the fast
    // window to burn (1/12)/0.01 = 8.3, but the slow window never
    // reaches the threshold — (1/51)/0.01 = 1.96 for the first one
    // (epoch 50, 51 epochs seen), (1/96)/0.01 = 1.04 once full. A
    // blip the slow window suppresses: no raise, ever.
    obs::SloMonitor mon(1);
    for (int e = 0; e < 400; ++e) {
        const auto tr = mon.observe(0, e, e % 100 == 50);
        EXPECT_EQ(tr.kind, obs::SloAlertTransition::Kind::None)
            << "epoch " << e;
    }
    EXPECT_EQ(mon.summary().raises, 0);
    EXPECT_EQ(mon.summary().alertEpochs, 0);
}

TEST(SloMonitor, BoundaryEpochDoesNotFlap)
{
    // Alternate violating/healthy epochs: once raised, the alert
    // must not clear at the first dip of the fast window (that is
    // what the clear ratio below 1 buys).
    WatchedMonitor mon(1);
    int transitions = 0;
    for (int e = 0; e < 400; ++e) {
        const auto tr = mon.observe(0, e, e % 2 == 0);
        if (tr.kind != obs::SloAlertTransition::Kind::None)
            ++transitions;
    }
    // Burn oscillates around 50 — far above the clear level of 1.0
    // — so the one raise never clears.
    EXPECT_EQ(transitions, 1);
    EXPECT_TRUE(mon.raised(0));
    EXPECT_EQ(mon.summary().activeAtEnd, 1);
}

TEST(SloMonitor, PerAppStateIsIndependent)
{
    WatchedMonitor mon(2);
    for (int e = 0; e < 12; ++e) {
        mon.observe(0, e, true);  // app 0 burns
        mon.observe(1, e, false); // app 1 healthy
    }
    EXPECT_TRUE(mon.raised(0));
    EXPECT_FALSE(mon.raised(1));
    EXPECT_EQ(mon.summary().raises, 1);
}

/**
 * Every burn rate and transition of long seeded violation streams,
 * at six quiet violation rates from a twentieth of the budget to
 * twice it with bursts on top, folded word by word into one
 * FNV-1a-64 digest. The windows wrap thousands of times and alerts
 * raise and clear over a hundred times per stream, so a slip in the
 * ring indices or in the full-window burn tables moves the digest.
 */
TEST(SloMonitor, BurnRateBitsArePinned)
{
    std::uint64_t h = 14695981039346656037ULL;
    auto fold = [&h](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        h = (h ^ bits) * 1099511628211ULL;
    };
    constexpr double kQuietRates[] = {0.0005, 0.001, 0.002,
                                      0.005,  0.01,  0.02};
    for (int stream = 0; stream < 6; ++stream) {
        stats::Rng rng(7 + static_cast<std::uint64_t>(stream));
        obs::SloMonitor m(3);
        for (int e = 0; e < 20000; ++e) {
            for (int a = 0; a < 3; ++a) {
                // Each app takes turns at a bursty violation rate.
                const double p = kQuietRates[stream] +
                    0.3 * ((e / 997) % 3 == a);
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
    EXPECT_EQ(h, 0x8749f3d938f7780dULL)
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
    EXPECT_GE(res.slo.worstBurn, kBurnThreshold);
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
    obs::forEachTrace(in, [&](const obs::TraceEvent &ev, int) {
        if (ev.type() == "epoch")
            ++epochs;
        if (ev.type() == "alert_raise") {
            ++raises;
            EXPECT_FALSE(ev.str("app").empty());
            EXPECT_GE(ev.num("burn_fast"), kBurnThreshold);
        }
        if (ev.type() == "alert_clear")
            ++clears;
    });
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
