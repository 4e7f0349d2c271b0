/**
 * @file
 * Counterfactual interference attribution implementation.
 */

#include "obs/attribution.hh"

#include <algorithm>
#include <cassert>

namespace ahq::obs
{

using machine::AppId;

const char *
interferenceResourceName(InterferenceResource r)
{
    switch (r) {
    case InterferenceResource::Ways:
        return "ways";
    case InterferenceResource::Bandwidth:
        return "bandwidth";
    case InterferenceResource::Cores:
        return "cores";
    case InterferenceResource::Other:
        break;
    }
    return "other";
}

InterferenceAttributor::InterferenceAttributor(
    machine::MachineConfig config, perf::ContentionTraits traits)
    : model_(std::move(config), traits)
{
}

void
InterferenceAttributor::attribute(
    const machine::RegionLayout &layout,
    const std::vector<perf::AppDemand> &demands,
    perf::CoreSharePolicy policy,
    const std::vector<perf::PerfOutcome> &base,
    const std::vector<machine::AppId> &lc_ids,
    const std::vector<core::LcBreakdown> &lc_detail,
    std::vector<AttributionShare> &out)
{
    out.clear();
    assert(lc_detail.size() == lc_ids.size());
    assert(base.size() == demands.size());

    // Nothing suffered interference this epoch: skip the (n
    // counterfactual evaluations of the) whole decomposition.
    const std::size_t nv = lc_ids.size();
    bool any = false;
    for (std::size_t v = 0; v < nv; ++v)
        any = any || lc_detail[v].interference > 0.0;
    if (!any)
        return;

    const std::size_t n = demands.size();
    raw_.assign(nv * n * 3, 0.0);

    // One counterfactual per co-runner: zero its demand (threads
    // and arrival rate — a vacated slot) and keep the layout. The n
    // sets share the layout and the policy, so one batched call
    // solves them in lock-step. Then read how much of each victim's
    // ways / bandwidth headroom / core grant comes back. Recoveries
    // are relative, so they compare across resource channels.
    cfDemands_.resize(n);
    cfOut_.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
        cfDemands_[j] = demands;
        cfDemands_[j][j].threads = 0;
        cfDemands_[j][j].arrivalRate = 0.0;
    }
    model_.evaluateBatchInto(layout, cfDemands_, policy, cfOut_);
    evals_ += static_cast<long long>(n);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t v = 0; v < nv; ++v) {
            const auto i = static_cast<std::size_t>(lc_ids[v]);
            if (i == j || lc_detail[v].interference <= 0.0)
                continue;
            const perf::PerfOutcome &b = base[i];
            const perf::PerfOutcome &c = cfOut_[j][i];
            double *r = &raw_[(v * n + j) * 3];
            r[0] = std::max(
                0.0, (c.effectiveWays - b.effectiveWays) /
                         std::max(b.effectiveWays, 1e-9));
            r[1] = std::max(0.0, (b.bwDilation - c.bwDilation) /
                                     std::max(c.bwDilation, 1e-9));
            r[2] = std::max(
                       0.0, (c.coreEquivalents - b.coreEquivalents) /
                                std::max(b.coreEquivalents, 1e-9)) +
                   std::max(
                       0.0, (b.serviceStretch - c.serviceStretch) /
                                std::max(c.serviceStretch, 1e-9));
        }
    }

    // Normalize per victim so shares sum to R_i exactly: scale each
    // raw recovery by R_i/sum, then let the last emitted share
    // absorb the floating-point residual of the scaling.
    for (std::size_t v = 0; v < nv; ++v) {
        const double ri = lc_detail[v].interference;
        if (ri <= 0.0)
            continue;
        double sum = 0.0;
        for (std::size_t k = 0; k < n * 3; ++k)
            sum += raw_[v * n * 3 + k];
        if (sum <= 0.0) {
            // The counterfactuals recovered nothing (noise-driven
            // R_i, queueing carryover): keep the decomposition
            // conservative with an explicit residual row.
            out.push_back({lc_ids[v], kNoiseCulprit,
                           InterferenceResource::Other, ri});
            continue;
        }
        const std::size_t first = out.size();
        for (std::size_t j = 0; j < n; ++j) {
            for (int k = 0; k < 3; ++k) {
                const double raw = raw_[(v * n + j) * 3 +
                                        static_cast<std::size_t>(k)];
                if (raw <= 0.0)
                    continue;
                out.push_back(
                    {lc_ids[v], static_cast<AppId>(j),
                     static_cast<InterferenceResource>(k),
                     ri * (raw / sum)});
            }
        }
        double prefix = 0.0;
        for (std::size_t s = first; s + 1 < out.size(); ++s)
            prefix += out[s].share;
        out.back().share = std::max(0.0, ri - prefix);
    }
}

void
AttributionLedger::add(const std::string &victim,
                       const std::string &culprit,
                       const std::string &resource, double share)
{
    Cell &cell = cells_[Key(victim, culprit, resource)];
    cell.share += share;
    cell.epochs += 1;
}

void
AttributionLedger::merge(const AttributionLedger &other)
{
    for (const auto &[key, cell] : other.cells_) {
        Cell &mine = cells_[key];
        mine.share += cell.share;
        mine.epochs += cell.epochs;
    }
}

std::vector<AttributionRow>
AttributionLedger::rows() const
{
    std::vector<AttributionRow> out;
    out.reserve(cells_.size());
    for (const auto &[key, cell] : cells_) {
        out.push_back({std::get<0>(key), std::get<1>(key),
                       std::get<2>(key), cell.share, cell.epochs});
    }
    return out;
}

double
AttributionLedger::victimTotal(const std::string &victim) const
{
    double total = 0.0;
    for (auto it = cells_.lower_bound(Key(victim, "", ""));
         it != cells_.end() && std::get<0>(it->first) == victim;
         ++it) {
        total += it->second.share;
    }
    return total;
}

std::string
AttributionLedger::topBlame(const std::string &victim) const
{
    std::string best;
    double best_share = -1.0;
    bool best_noise = true;
    for (auto it = cells_.lower_bound(Key(victim, "", ""));
         it != cells_.end() && std::get<0>(it->first) == victim;
         ++it) {
        const bool noise =
            std::get<1>(it->first) == kNoiseCulpritName;
        // A real culprit always outranks the residual; among peers
        // the larger accumulated share wins (ties break toward the
        // map's key order, which is deterministic).
        const bool better =
            best.empty() || (best_noise && !noise) ||
            (best_noise == noise && it->second.share > best_share);
        if (better) {
            best = std::get<1>(it->first) + ":" +
                   std::get<2>(it->first);
            best_share = it->second.share;
            best_noise = noise;
        }
    }
    return best;
}

} // namespace ahq::obs
