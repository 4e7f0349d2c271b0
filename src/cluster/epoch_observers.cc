/**
 * @file
 * The epoch observers: attribution, audit, time series, epoch trace
 * events, SLO monitoring and record keeping.
 */

#include "cluster/epoch_observers.hh"

#include <string>

#include "check/auditor.hh"
#include "obs/span.hh"
#include "obs/timeseries.hh"

namespace ahq::cluster::detail
{

namespace
{

/**
 * Counterfactual attribution (cfg.attribute) of the post-warmup
 * epochs, like the violation counter and the means the ledger is read
 * next to. It owns its own model: the simulator's keeps scratch.
 */
class Attribution final : public EpochObserver
{
  public:
    using EpochObserver::EpochObserver;

    void observe(const EpochState &s) override
    {
        if (!s.steady)
            return;
        obs::Span span(cfg_.obs, "attribute");
        attributor_.attribute(s.layout, s.demands, s.policy, s.outcomes,
                              node_.lcApps(), s.entropy.lcDetail,
                              shares_);
        // Shares come victim-major in lcApps() order, lcDetail's order.
        const auto &victims = node_.lcApps();
        for (std::size_t v = 0, k = 0; v < victims.size(); ++v) {
            culprits_.clear();
            resources_.clear();
            values_.clear();
            const std::string &vname = node_.profile(victims[v]).name;
            for (; k < shares_.size() && shares_[k].victim == victims[v];
                 ++k) {
                const obs::AttributionShare &sh = shares_[k];
                culprits_.push_back(
                    sh.culprit == obs::kNoiseCulprit
                        ? obs::kNoiseCulpritName
                        : node_.profile(sh.culprit).name);
                resources_.push_back(
                    obs::interferenceResourceName(sh.resource));
                values_.push_back(sh.share);
                res_.attribution.add(vname, culprits_.back(),
                                     resources_.back(), sh.share);
            }
            if (s.traced && !values_.empty()) {
                obs::Event ev("attribution");
                ev.str("app", vname)
                    .num("r_i", s.entropy.lcDetail[v].interference)
                    .strs("culprits", culprits_)
                    .strs("resources", resources_)
                    .nums("shares", values_);
                cfg_.obs.atEpoch(s.epoch).emit(ev);
            }
        }
        cfg_.obs.count("attr.epochs");
    }

    void finish() override
    {
        cfg_.obs.count("attr.evals",
                       static_cast<double>(attributor_.evaluations()));
    }

  private:
    obs::InterferenceAttributor attributor_{node_.config(),
                                            cfg_.contention};
    std::vector<obs::AttributionShare> shares_;
    std::vector<std::string> culprits_, resources_;
    std::vector<double> values_;
};

/** Invariant auditing (cfg.checkMode, see src/check/). */
class Audit final : public EpochObserver
{
  public:
    using EpochObserver::EpochObserver;

    void start(const EpochState &s) override
    {
        auditor_.beginRun(s.layout, 0.0);
    }

    void decided(const EpochState &s, const sched::Scheduler &sched,
                 const machine::RegionLayout &intent,
                 bool degraded) override
    {
        obs::Span span(cfg_.obs, "audit");
        auditor_.afterDecision(sched, before_, intent, s.epoch, s.time,
                               degraded);
    }

    void actuated(const EpochState &s,
                  const machine::RegionLayout &intent,
                  const machine::RegionLayout &applied,
                  bool ok) override
    {
        obs::Span span(cfg_.obs, "audit");
        auditor_.afterActuation(intent, applied, ok, s.epoch, s.time);
    }

    void observe(const EpochState &s) override
    {
        obs::Span span(cfg_.obs, "audit");
        auditor_.afterEpoch(s.entropy, cfg_.ri, !node_.lcApps().empty(),
                            !node_.beApps().empty(), s.epoch, s.time);
        // The next decision starts from the layout this epoch ran
        // under (a swap epoch makes no decision).
        before_ = s.layout;
    }

  private:
    check::InvariantAuditor auditor_{cfg_.checkMode, cfg_.obs};
    machine::RegionLayout before_{machine::ResourceVector{}};
};

/**
 * Per-epoch time series (cfg.obs.series) under the scope's scenario
 * tag. Handles are resolved once (std::map references are stable),
 * so recording is lock-free and allocation-free.
 */
class Series final : public EpochObserver
{
  public:
    Series(const SimulationConfig &cfg, const Node &node,
           SimulationResult &res)
        : EpochObserver(cfg, node, res), apps_(node.apps().size())
    {
        auto h = [&](const std::string &name) {
            return &cfg.obs.series->handle(cfg.obs.scenario, name);
        };
        for (const char *name :
             {"e_s", "e_lc", "e_be", "violations", "faults"})
            nodeSeries_.push_back(h(name));
        for (machine::AppId i = 0; i < node.numApps(); ++i) {
            const auto &prof = node.profile(i);
            const std::string sfx =
                "." + std::to_string(i) + "." + prof.name;
            App &a = apps_[static_cast<std::size_t>(i)];
            a.cores = h("cores" + sfx);
            a.ways = h("ways" + sfx);
            a.value = h((prof.latencyCritical ? "p95" : "ipc") + sfx);
            if (prof.latencyCritical) {
                a.ret = h("ret" + sfx);
                a.queue = h("queue" + sfx);
            }
        }
    }

    void observe(const EpochState &s) override
    {
        const int e = s.epoch;
        std::size_t lc_j = 0;
        int violations = 0;
        for (std::size_t i = 0; i < apps_.size(); ++i) {
            const auto &o = s.obs()[i];
            const App &a = apps_[i];
            a.cores->record(e, s.cores[i]);
            a.ways->record(e, s.ways[i]);
            if (!o.latencyCritical) {
                a.value->record(e, o.ipc);
                continue;
            }
            a.value->record(e, o.p95Ms);
            a.queue->record(e, s.backlog[i]);
            a.ret->record(e,
                          s.entropy.lcDetail[lc_j++].remainingTolerance);
            violations += core::violatesQos(o.p95Ms, o.thresholdMs);
        }
        const double values[] = {s.entropy.eS, s.entropy.eLc,
                                 s.entropy.eBe,
                                 static_cast<double>(violations),
                                 static_cast<double>(s.dropped)};
        for (std::size_t k = 0; k < nodeSeries_.size(); ++k)
            nodeSeries_[k]->record(e, values[k]);
    }

  private:
    /** One app's series; `value` is p95 (LC) or IPC (BE). */
    struct App
    {
        obs::TimeSeries *cores, *ways, *value, *ret, *queue;
    };
    std::vector<obs::TimeSeries *> nodeSeries_;
    std::vector<App> apps_;
};

/** `policy_swap` and `epoch` trace events of the kept epochs. */
class EpochTrace final : public EpochObserver
{
  public:
    using EpochObserver::EpochObserver;

    void swapped(const EpochState &s,
                 const sched::Scheduler &incoming) override
    {
        if (!s.traced)
            return;
        obs::Event ev("policy_swap");
        ev.str("scheduler", incoming.name()).integer("arm", s.arm);
        cfg_.obs.atEpoch(s.epoch).emit(ev);
    }

    void observe(const EpochState &s) override
    {
        if (!s.traced)
            return;
        p95_.clear();
        ipc_.clear();
        for (const auto &o : s.obs()) {
            p95_.push_back(o.latencyCritical ? o.p95Ms : 0.0);
            ipc_.push_back(o.latencyCritical ? 0.0 : o.ipc);
        }
        obs::Event ev("epoch");
        ev.num("t", s.time)
            .num("e_lc", s.entropy.eLc)
            .num("e_be", s.entropy.eBe)
            .num("e_s", s.entropy.eS)
            .nums("p95_ms", p95_)
            .nums("ipc", ipc_);
        cfg_.obs.atEpoch(s.epoch).emit(ev);
    }

  private:
    std::vector<double> p95_, ipc_;
};

/**
 * SLO burn-rate monitoring (cfg.slo) of every LC app's violation
 * bit. Alerts emit regardless of trace sampling, like `violation`:
 * they are the signal sampling must not drop.
 */
class Slo final : public EpochObserver
{
  public:
    using EpochObserver::EpochObserver;

    void observe(const EpochState &s) override
    {
        using Kind = obs::SloAlertTransition::Kind;
        for (const machine::AppId i : node_.lcApps()) {
            const auto &o = s.obs()[static_cast<std::size_t>(i)];
            const obs::SloAlertTransition tr = monitor_.observe(
                i, s.epoch, core::violatesQos(o.p95Ms, o.thresholdMs));
            if (tr.kind == Kind::None)
                continue;
            const bool raise = tr.kind == Kind::Raise;
            cfg_.obs.count(raise ? "slo.alert_raised"
                                 : "slo.alert_cleared");
            if (!cfg_.obs.tracing())
                continue;
            obs::Event ev(raise ? "alert_raise" : "alert_clear");
            ev.str("app", node_.profile(i).name);
            if (!raise)
                ev.integer("duration", tr.durationEpochs);
            ev.num("burn_fast", tr.burnFast).num("burn_slow", tr.burnSlow);
            cfg_.obs.atEpoch(s.epoch).emit(ev);
        }
    }

    void finish() override
    {
        res_.slo = monitor_.summary();
        cfg_.obs.count("slo.alert_epochs",
                       static_cast<double>(res_.slo.alertEpochs));
    }

  private:
    obs::SloMonitor monitor_{node_.numApps()};
};

/** Per-epoch records (cfg.keepEpochs) in SimulationResult::epochs. */
class Records final : public EpochObserver
{
  public:
    using EpochObserver::EpochObserver;

    void observe(const EpochState &s) override
    {
        res_.epochs.push_back({s.time, s.obs(), s.backlog, s.arm,
                               s.outcomes, s.entropy, s.layout});
    }
};

} // namespace

ObserverList
makeObservers(const SimulationConfig &cfg, const Node &node,
              int epochs, SimulationResult &res)
{
    ObserverList list;
    if (cfg.attribute)
        list.push_back(std::make_unique<Attribution>(cfg, node, res));
    if (cfg.checkMode != check::Mode::Off)
        list.push_back(std::make_unique<Audit>(cfg, node, res));
    if (cfg.obs.series != nullptr)
        list.push_back(std::make_unique<Series>(cfg, node, res));
    if (cfg.obs.tracing())
        list.push_back(std::make_unique<EpochTrace>(cfg, node, res));
    if (cfg.slo)
        list.push_back(std::make_unique<Slo>(cfg, node, res));
    if (cfg.keepEpochs) {
        res.epochs.reserve(static_cast<std::size_t>(epochs));
        list.push_back(std::make_unique<Records>(cfg, node, res));
    }
    return list;
}

} // namespace ahq::cluster::detail
