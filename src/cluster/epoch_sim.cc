/**
 * @file
 * Epoch simulator implementation: the core step over the run state.
 */

#include "cluster/epoch_sim.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "cluster/epoch_observers.hh"
#include "fault/injector.hh"
#include "obs/span.hh"
#include "perf/queueing.hh"
#include "stats/rng.hh"

namespace ahq::cluster
{

using machine::AppId;
using machine::ResourceKind;

namespace
{

/** Load cap for fault-injected spikes (see the spike below). */
constexpr double kSpikeLoadCap = 0.95;

/**
 * One run and its core step (decide → contention model → queues →
 * entropy → steady-state sums) over buffers sized once per run, so
 * with no observers an epoch allocates nothing.
 */
class Run : public detail::EpochState
{
  public:
    Run(const Node &node, const SimulationConfig &cfg,
        sched::Scheduler *const *arms, const PolicySchedule *schedule,
        SimulationResult &res)
        : node_(node), cfg_(cfg), arms_(arms), schedule_(schedule),
          res_(res), rng_(cfg.seed),
          model_(node.config(), cfg.contention),
          sampling_(cfg.obs.tracing() && cfg.traceSampleRate < 1.0),
          mutedScope_(cfg.obs.withSink(nullptr)),
          staticObs_(node.staticObservations())
    {
        arm = schedule != nullptr ? schedule->armAt(0) : 0;
        cur_ = arms[static_cast<std::size_t>(arm)];
        cur_->reset();
        // Always (re)attach the run's scope: a reused scheduler must
        // not keep reporting into the previous run's sinks.
        cur_->setObsScope(cfg.obs);
        const auto n = staticObs_.size();
        obsBuf[0] = obsBuf[1] = staticObs_;
        backlog.assign(n, 0.0);
        ways.assign(n, -1);
        cores.assign(n, -1);
        for (auto *v :
             {&res.meanP95Ms, &res.meanIpc, &res.steadyMeanLoad})
            v->assign(n, 0.0);
    }

    const sched::Scheduler &scheduler() const { return *cur_; }

    /** Build the initial layout and attach the observers. */
    void begin(detail::ObserverList observers)
    {
        observers_ = std::move(observers);
        layout = cur_->initialLayout(node_.config(), staticObs_);
        assert(layout.valid());
        for (auto &o : observers_)
            o->start(*this);
        // Fault draws use their own stream split off the run seed, so
        // they never perturb the measurement noise.
        if (cfg_.faults != nullptr && cfg_.faults->perturbsNodes())
            injector_.emplace(*cfg_.faults, cfg_.seed, cfg_.obs);
    }

    void step(int e)
    {
        epoch = e;
        time = e * cfg_.epochSeconds;
        steady = e >= res_.warmupEpochs;
        obs::Span epoch_span(cfg_.obs, "epoch");
        const bool tracing = cfg_.obs.tracing();
        traced = tracing &&
            (!sampling_ ||
             epochTraceSampled(cfg_.seed, e, cfg_.traceSampleRate));
        const bool swapped = schedule_ != nullptr && swapArm();
        // Re-point the scheduler/injector sinks only when the epoch
        // is kept or just stopped being kept (or a swap brought a
        // fresh arm), so rejected→rejected epochs copy no scopes.
        if (tracing && (traced || prevTraced_ || swapped)) {
            cur_->setObsScope(traced ? cfg_.obs.atEpoch(e) : mutedScope_);
            if (injector_)
                injector_->setEventsEnabled(traced);
        }
        prevTraced_ = traced;
        if (injector_)
            injector_->beginEpoch(e, time);
        // A swap epoch skips adjust(): the incoming scheduler just
        // built its initial layout and has observed nothing yet (the
        // same contract as epoch 0 of a plain run).
        if (e > 0 && !swapped)
            decide();
        measure();
        for (auto &o : observers_)
            o->observe(*this);
        cfg_.obs.count("sim.epochs");
        if (!steady)
            return;
        // Steady-state sums in epoch order (see keepEpochs).
        res_.meanELc += entropy.eLc;
        res_.meanEBe += entropy.eBe;
        res_.meanES += entropy.eS;
        for (std::size_t i = 0; i < obs().size(); ++i) {
            const auto &o = obs()[i];
            if (o.latencyCritical) {
                res_.meanP95Ms[i] += o.p95Ms;
                res_.steadyMeanLoad[i] += o.loadFraction;
                res_.violations +=
                    core::violatesQos(o.p95Ms, o.thresholdMs);
            } else {
                res_.meanIpc[i] += o.ipc;
            }
        }
        ++steady_;
    }

    /** Steady-state means and yield, then the observers' totals. */
    void finish()
    {
        if (steady_ > 0) {
            res_.meanELc /= steady_;
            res_.meanEBe /= steady_;
            res_.meanES /= steady_;
            for (auto *v :
                 {&res_.meanP95Ms, &res_.meanIpc, &res_.steadyMeanLoad})
                for (auto &x : *v)
                    x /= steady_;
        }
        lcObs_.clear();
        for (const AppId i : node_.lcApps())
            lcObs_.push_back({0.0, res_.meanP95Ms[std::size_t(i)],
                              node_.profile(i).tailThresholdMs});
        res_.yieldValue = core::yield(lcObs_);
        for (auto &o : observers_)
            o->finish();
    }

  private:
    /** The policy-swap seam (see EpochSimulator::runSwitched). */
    bool swapArm()
    {
        const int a = schedule_->armAt(epoch);
        if (a == arm)
            return false;
        arm = a;
        cur_ = arms_[static_cast<std::size_t>(a)];
        cur_->reset();
        cur_->setObsScope(cfg_.obs.tracing() && !traced
                              ? mutedScope_
                              : cfg_.obs.atEpoch(epoch));
        layout = cur_->initialLayout(node_.config(), staticObs_);
        assert(layout.valid());
        cfg_.obs.count("sim.policy_swaps");
        for (auto &o : observers_)
            o->swapped(*this, *cur_);
        return true;
    }

    void decide()
    {
        if (injector_ && lastAllDropped_) {
            // Nothing to act on but staleness: skip uniformly (graceful
            // degradation for strategies without fault handling).
            cfg_.obs.count("fault.decision_skipped");
            return;
        }
        // Under faults the knob writes may apply the decided intent
        // only in part; otherwise the scheduler edits the layout.
        machine::RegionLayout &intent = injector_ ? intent_ : layout;
        if (injector_)
            intent_ = layout;
        {
            obs::Span span(cfg_.obs, "decide");
            cur_->adjust(intent, obsBuf[(epoch + 1) & 1], time);
        }
        for (auto &o : observers_)
            o->decided(*this, *cur_, intent, lastDegraded_);
        if (injector_) {
            fault::FaultInjector::Actuation act;
            {
                obs::Span span(cfg_.obs, "actuate");
                act = injector_->actuate(layout, intent_, epoch, time);
                cur_->onActuation(act.ok);
            }
            for (auto &o : observers_)
                o->actuated(*this, intent_, act.applied, act.ok);
            layout = std::move(act.applied);
        }
        assert(layout.valid());
    }

    /** Contention model, then per app queues and measurements. */
    void measure()
    {
        obs::Span measure_span(cfg_.obs, "measure");
        const int e = epoch;
        const double t = time;
        node_.demandsAt(t, demands);
        policy = cur_->corePolicy();
        {
            obs::Span span(cfg_.obs, "model");
            model_.evaluateInto(layout, demands, policy, outcomes);
        }
        lcObs_.clear();
        beObs_.clear();
        dropped = 0;
        for (AppId i = 0; i < node_.numApps(); ++i) {
            const auto ui = static_cast<std::size_t>(i);
            const auto &out = outcomes[ui];
            const auto &app = node_.apps()[ui];
            const auto &prof = app.profile;

            const int ways_now = layout.reachable(i, ResourceKind::LlcWays);
            const int cores_now = layout.reachable(i, ResourceKind::Cores);
            double overhead = 1.0;
            if (cfg_.overheadEnabled && ways[ui] >= 0)
                overhead = std::min(2.0, 1.0 +
                    cfg_.overheadWaysFactor * std::abs(ways_now - ways[ui]) +
                    cfg_.overheadCoresFactor *
                        std::abs(cores_now - cores[ui]));
            ways[ui] = ways_now;
            cores[ui] = cores_now;

            // A freshly migrated app re-warms its caches with service
            // slowed by a linearly decaying factor (coldEpochs).
            double cold = 1.0;
            if (e < app.coldEpochs && app.coldPenalty > 0.0) {
                cold = 1.0 + app.coldPenalty *
                    static_cast<double>(app.coldEpochs - e) /
                    static_cast<double>(app.coldEpochs);
            }

            double load = 0.0, lambda = 0.0, value;
            if (prof.latencyCritical) {
                load = node_.loadAt(i, t);
                const double f =
                    injector_ ? injector_->loadFactor(i, t) : 1.0;
                if (f != 1.0) {
                    // Closed-loop generators bound concurrency: a
                    // spike saturates at the brink, not beyond, and
                    // never drops below the unspiked load.
                    const double spiked = load * f;
                    load = spiked > load
                        ? std::min(spiked, std::max(load, kSpikeLoadCap))
                        : std::max(spiked, 0.0);
                }
                lambda = prof.arrivalRate(load);
                const double cap = out.serviceRate / cold;
                const double per_server = out.perServerRate / cold;

                // Explicit backlog dynamics with a generator-side cap
                // on outstanding work.
                const double b_new = std::clamp(
                    backlog[ui] + (lambda - cap) * cfg_.epochSeconds,
                    0.0, perf::backlogCap(lambda, cfg_.queueCapSeconds));
                const double b_mid = 0.5 * (backlog[ui] + b_new);
                backlog[ui] = b_new;

                // The LC tail rule the oracle shares, over the epoch's
                // mean backlog.
                const double t95 = perf::lcTailSeconds(
                    out.coreEquivalents, per_server, cap, lambda,
                    prof.svcMultAt(cfg_.tailPercentile),
                    out.serviceStretch, b_mid, cfg_.tailPercentile);
                value = (prof.baseLatencyMs + 1000.0 * t95) * overhead;
            } else {
                // Repartitioning costs BE throughput too (cold ways
                // and thread migrations), at half the latency rate.
                value = out.ipc / (1.0 + 0.5 * (overhead - 1.0)) / cold;
            }
            value *= rng_.lognormalNoise(cfg_.noiseSigma);

            // A dropped sample re-delivers the previous observation,
            // flagged stale (never NaN — schedulers sort on these
            // fields); epoch 0 has none, so the monitoring agent's
            // cold default (solo expectations) stands in.
            auto &o = obsBuf[e & 1][ui];
            double extra = 1.0;
            const bool valid = !injector_ ||
                injector_->sampleMeasurement(i, e, t, &extra);
            if (!valid && e > 0) {
                o = obsBuf[(e + 1) & 1][ui];
            } else if (prof.latencyCritical) {
                o.loadFraction = load;
                o.arrivalRate = lambda;
                o.idealP95Ms =
                    prof.soloTailPercentileMs(load, cfg_.tailPercentile);
                o.p95Ms = valid ? value * extra : o.idealP95Ms;
            } else {
                o.ipc = valid ? value * extra : o.ipcSolo;
            }
            o.sampleValid = valid;
            dropped += !valid;
            if (prof.latencyCritical)
                lcObs_.push_back({o.idealP95Ms, o.p95Ms, o.thresholdMs});
            else
                beObs_.push_back({o.ipcSolo, o.ipc});
        }
        lastDegraded_ = dropped > 0;
        lastAllDropped_ = dropped > 0 && dropped == node_.numApps();
        core::computeEntropyInto(lcObs_, beObs_, cfg_.ri, entropy);
    }

    const Node &node_;
    const SimulationConfig &cfg_;
    sched::Scheduler *const *arms_;
    const PolicySchedule *schedule_;
    SimulationResult &res_;
    stats::Rng rng_;
    perf::ContentionModel model_;
    detail::ObserverList observers_;
    std::optional<fault::FaultInjector> injector_;
    sched::Scheduler *cur_;
    machine::RegionLayout intent_{machine::ResourceVector{}};

    // Head-based trace sampling; the muted scope is built once.
    const bool sampling_;
    const obs::Scope mutedScope_;
    bool prevTraced_ = true;

    // Degradation carried into the next decision: whether any
    // (resp. every) app's sample was dropped last epoch.
    bool lastDegraded_ = false;
    bool lastAllDropped_ = false;

    const std::vector<sched::AppObservation> staticObs_;
    std::vector<core::LcObservation> lcObs_;
    std::vector<core::BeObservation> beObs_;
    int steady_ = 0;
};

} // namespace

bool
epochTraceSampled(std::uint64_t seed, int epoch, double rate)
{
    if (rate >= 1.0)
        return true;
    if (rate <= 0.0 || epoch < 0)
        return false;
    // +1 keeps epoch 0 off the parent's 0 stream (split(0) would
    // alias the convention other subsystems use for "first child").
    return stats::Rng(seed)
               .split(kTraceSampleStream)
               .split(static_cast<std::uint64_t>(epoch) + 1)
               .uniform() < rate;
}

EpochSimulator::EpochSimulator(Node node, SimulationConfig config)
    : node_(std::move(node)), cfg(config)
{
    assert(cfg.epochSeconds > 0.0);
    assert(cfg.durationSeconds >= cfg.epochSeconds);
    assert(cfg.warmupEpochs >= 0);
}

SimulationResult
EpochSimulator::run(sched::Scheduler &scheduler) const
{
    sched::Scheduler *arm = &scheduler;
    return runImpl(&arm, nullptr);
}

SimulationResult
EpochSimulator::runSwitched(
    const std::vector<sched::Scheduler *> &arms,
    const PolicySchedule &schedule) const
{
    assert(!arms.empty() &&
           std::find(arms.begin(), arms.end(), nullptr) == arms.end());
    assert(std::all_of(schedule.blockArm.begin(),
                       schedule.blockArm.end(), [&](int a) {
                           return a >= 0 && std::size_t(a) < arms.size();
                       }));
    return runImpl(arms.data(), &schedule);
}

SimulationResult
EpochSimulator::runImpl(sched::Scheduler *const *arms,
                        const PolicySchedule *schedule) const
{
    const int epochs = static_cast<int>(
        std::round(cfg.durationSeconds / cfg.epochSeconds));
    // Profiling root for the whole run; every phase span nests under
    // it. One branch when no profiler is attached.
    obs::Span run_span(cfg.obs, "run");

    SimulationResult result;
    result.warmupEpochs = std::min(cfg.warmupEpochs, epochs);
    result.tailPercentile = cfg.tailPercentile;
    Run run(node_, cfg, arms, schedule, result);
    const bool tracing = cfg.obs.tracing();
    if (tracing) {
        obs::Event ev("run_start");
        ev.str("scheduler", run.scheduler().name())
            .str("node", node_.describe())
            .integer("epochs", epochs)
            .num("epoch_seconds", cfg.epochSeconds)
            .integer("seed", static_cast<long long>(cfg.seed))
            .integer("warmup", result.warmupEpochs);
        if (cfg.traceSampleRate < 1.0)
            ev.num("trace_sample", cfg.traceSampleRate);
        cfg.obs.emit(ev);
    }
    run.begin(detail::makeObservers(cfg, node_, epochs, result));
    for (int e = 0; e < epochs; ++e)
        run.step(e);
    run.finish();

    if (tracing) {
        obs::Event ev("run_end");
        ev.str("scheduler", run.scheduler().name())
            .num("mean_e_lc", result.meanELc)
            .num("mean_e_be", result.meanEBe)
            .num("mean_e_s", result.meanES)
            .num("yield", result.yieldValue)
            .integer("violations", result.violations);
        cfg.obs.emit(ev);
    }
    cfg.obs.count("sim.runs");
    cfg.obs.count("sim.violations", result.violations);
    cfg.obs.observe("sim.mean_e_s", result.meanES);
    return result;
}

} // namespace ahq::cluster
