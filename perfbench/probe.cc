/**
 * @file
 * ProbeScheduler and the contention/queueing/entropy replay.
 */

#include "probe.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/entropy.hh"
#include "obs/attribution.hh"
#include "perf/contention.hh"
#include "perf/queueing.hh"

namespace ahqbench
{

using namespace ahq;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

ProbeScheduler::ProbeScheduler(std::unique_ptr<sched::Scheduler> inner,
                               bool keep_inputs)
    : inner_(std::move(inner)), keep_(keep_inputs)
{
}

machine::RegionLayout
ProbeScheduler::initialLayout(const machine::MachineConfig &config,
                              const std::vector<sched::AppObservation> &apps)
{
    inner_->setObsScope(obsScope());
    machine::RegionLayout layout = inner_->initialLayout(config, apps);
    if (keep_) {
        layouts_.push_back(layout);
        policies_.push_back(inner_->corePolicy());
    }
    return layout;
}

void
ProbeScheduler::adjust(machine::RegionLayout &layout,
                       const std::vector<sched::AppObservation> &obs,
                       double now_s)
{
    const std::int64_t t0 = nowNs();
    inner_->setObsScope(obsScope());
    inner_->adjust(layout, obs, now_s);
    const std::int64_t t1 = nowNs();
    starts_.push_back(t0);
    decide_.push_back(t1 - t0);
    if (keep_) {
        layouts_.push_back(layout);
        policies_.push_back(inner_->corePolicy());
        obs_.push_back(obs);
    }
}

void
ProbeScheduler::reset()
{
    inner_->reset();
    starts_.clear();
    decide_.clear();
    layouts_.clear();
    policies_.clear();
    obs_.clear();
    resetNs_ = nowNs();
}

double
ProbeScheduler::runNs() const
{
    if (starts_.empty())
        return 0.0;
    std::vector<double> gaps;
    gaps.reserve(starts_.size());
    for (std::size_t i = 1; i < starts_.size(); ++i)
        gaps.push_back(static_cast<double>(starts_[i] - starts_[i - 1]));
    return static_cast<double>(starts_.back() - resetNs_) + median(gaps);
}

namespace
{

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameOutcome(const perf::PerfOutcome &a, const perf::PerfOutcome &b)
{
    return sameBits(a.coreEquivalents, b.coreEquivalents) &&
        sameBits(a.effectiveWays, b.effectiveWays) &&
        sameBits(a.bwDilation, b.bwDilation) &&
        sameBits(a.speed, b.speed) &&
        sameBits(a.serviceStretch, b.serviceStretch) &&
        sameBits(a.perServerRate, b.perServerRate) &&
        sameBits(a.serviceRate, b.serviceRate) &&
        sameBits(a.utilization, b.utilization) &&
        sameBits(a.ipc, b.ipc) &&
        sameBits(a.bwDemandGibps, b.bwDemandGibps);
}

} // namespace

void
replayRun(const cluster::Node &node, const cluster::SimulationConfig &cfg,
          const ProbeScheduler &probe,
          const cluster::SimulationResult &result, ReplayStats &st)
{
    const auto &layouts = probe.layouts();
    const auto &policies = probe.policies();
    const auto &observations = probe.observations();
    const int n = node.numApps();
    const bool records = !result.epochs.empty();

    if (records && result.epochs.size() != layouts.size()) {
        st.failures.push_back("replay: recorded epoch count differs");
        return;
    }

    perf::ContentionModel model(node.config(), cfg.contention);
    obs::InterferenceAttributor attributor(node.config(), cfg.contention);
    std::vector<perf::AppDemand> demands;
    std::vector<perf::PerfOutcome> out;
    std::vector<core::LcObservation> lc;
    std::vector<core::BeObservation> be;
    std::vector<obs::AttributionShare> shares;
    std::vector<int> lc_index(static_cast<std::size_t>(n), -1);
    for (std::size_t v = 0; v < node.lcApps().size(); ++v)
        lc_index[static_cast<std::size_t>(node.lcApps()[v])] =
            static_cast<int>(v);
    bool outcomes_equal = true;
    bool entropy_equal = true;
    bool conserved = true;

    for (std::size_t e = 0; e < layouts.size(); ++e) {
        const double t = static_cast<double>(e) * cfg.epochSeconds;
        node.demandsAt(t, demands);
        const std::size_t hits0 = model.memoHits();
        const std::int64_t t0 = nowNs();
        model.evaluateInto(layouts[e], demands, policies[e], out);
        const double ns = static_cast<double>(nowNs() - t0);
        ++st.epochs;
        ++st.evals;
        if (model.memoHits() > hits0) {
            ++st.hits;
            st.hitNs += ns;
        } else {
            st.missNs += ns;
        }
        if (records) {
            const auto &rec = result.epochs[e].outcomes;
            for (int i = 0; i < n; ++i) {
                const auto ui = static_cast<std::size_t>(i);
                outcomes_equal = outcomes_equal &&
                    sameOutcome(out[ui], rec[ui]);
            }
        }
        if (e >= observations.size())
            continue;

        // The measure phase's queueing call, on the epoch's inputs.
        const auto &o = observations[e];
        for (int i = 0; i < n; ++i) {
            const auto ui = static_cast<std::size_t>(i);
            if (!o[ui].latencyCritical)
                continue;
            const auto &prof = node.profile(i);
            const auto &po = out[ui];
            const double lam_eff =
                std::min(o[ui].arrivalRate, 0.98 * po.serviceRate);
            const double svc_tail = prof.svcMultAt(cfg.tailPercentile) *
                po.serviceStretch;
            const std::int64_t q0 = nowNs();
            st.sojournSum += perf::sojournPercentileApprox(
                po.coreEquivalents, lam_eff, po.perServerRate, svc_tail,
                cfg.tailPercentile);
            st.sojournNs += static_cast<double>(nowNs() - q0);
            ++st.sojournCalls;
        }

        lc.clear();
        be.clear();
        for (const auto &a : o) {
            if (a.latencyCritical)
                lc.push_back({a.idealP95Ms, a.p95Ms, a.thresholdMs});
            else
                be.push_back({a.ipcSolo, a.ipc});
        }
        const std::int64_t h0 = nowNs();
        const core::EntropyReport rep = core::computeEntropy(lc, be, cfg.ri);
        st.entropyNs += static_cast<double>(nowNs() - h0);
        ++st.entropyCalls;
        if (records)
            entropy_equal = entropy_equal &&
                sameBits(rep.eS, result.epochs[e].entropy.eS);

        if (static_cast<int>(e) < result.warmupEpochs)
            continue;
        const long long evals0 = attributor.evaluations();
        const std::int64_t a0 = nowNs();
        attributor.attribute(layouts[e], demands, policies[e], out,
                             node.lcApps(), rep.lcDetail, shares);
        st.attributeNs += static_cast<double>(nowNs() - a0);
        ++st.attributeCalls;
        st.attributeEvals += attributor.evaluations() - evals0;
        // Per victim the shares must sum to its measured R_i.
        std::size_t s = 0;
        while (s < shares.size()) {
            const machine::AppId victim = shares[s].victim;
            double sum = 0.0;
            for (; s < shares.size() && shares[s].victim == victim; ++s)
                sum += shares[s].share;
            const double r_i =
                rep.lcDetail[static_cast<std::size_t>(
                                 lc_index[static_cast<std::size_t>(victim)])]
                    .interference;
            conserved = conserved && std::abs(sum - r_i) <= 1e-9;
        }
    }

    if (!conserved)
        st.failures.push_back("attribution shares do not sum to R_i");
    if (!outcomes_equal || !entropy_equal)
        st.failures.push_back(
            "replayed contention outcomes or E_S differ from the run");
}

} // namespace ahqbench
