/**
 * @file
 * Oracle search implementation.
 */

#include "cluster/oracle.hh"

#include <cassert>
#include <functional>
#include <limits>

#include "exec/jobs.hh"
#include "exec/parallel.hh"
#include "perf/queueing.hh"

namespace ahq::cluster
{

using machine::AppId;
using machine::Region;
using machine::RegionLayout;

namespace
{

/** Cores move one unit at a time in the search. */
constexpr int kCoreStep = 1;

/**
 * Enumerate compositions: parts[i] = mins[i] + step * k_i with the
 * total exactly `total` when reachable; the remainder that cannot
 * be expressed in whole steps is added to part 0.
 */
void
forEachComposition(int total, const std::vector<int> &mins, int step,
                   const std::function<void(
                       const std::vector<int> &)> &visit)
{
    const int parts = static_cast<int>(mins.size());
    int base = 0;
    for (int m : mins)
        base += m;
    if (base > total)
        return;
    const int extra_units = (total - base) / step;
    const int leftover = (total - base) % step;

    std::vector<int> units(static_cast<std::size_t>(parts), 0);
    std::function<void(int, int)> rec = [&](int idx,
                                            int remaining) {
        if (idx == parts - 1) {
            units[static_cast<std::size_t>(idx)] = remaining;
            std::vector<int> out(static_cast<std::size_t>(parts));
            for (int i = 0; i < parts; ++i) {
                out[static_cast<std::size_t>(i)] =
                    mins[static_cast<std::size_t>(i)] +
                    step * units[static_cast<std::size_t>(i)];
            }
            out[0] += leftover;
            visit(out);
            return;
        }
        for (int k = 0; k <= remaining; ++k) {
            units[static_cast<std::size_t>(idx)] = k;
            rec(idx + 1, remaining - k);
        }
    };
    rec(0, extra_units);
}

/** Materialize an enumeration so it can be fanned across a pool. */
std::vector<std::vector<int>>
allCompositions(int total, const std::vector<int> &mins, int step)
{
    std::vector<std::vector<int>> out;
    forEachComposition(total, mins, step,
                       [&](const std::vector<int> &c) {
                           out.push_back(c);
                       });
    return out;
}

/** Distribute bandwidth units proportionally to cores. */
std::vector<int>
bwProportionalToCores(const std::vector<int> &cores, int total_bw)
{
    int total_cores = 0;
    for (int c : cores)
        total_cores += c;
    std::vector<int> bw(cores.size(), 0);
    int assigned = 0;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        bw[i] = total_cores > 0 ?
            total_bw * cores[i] / total_cores : 0;
        assigned += bw[i];
    }
    bw[0] += total_bw - assigned;
    return bw;
}

/**
 * The search both families share. Cores split one unit at a time
 * and ways in cfg.wayStep steps, each group getting at least its
 * entry of `mins` of both; bandwidth follows the cores. `build`
 * turns one (cores, ways, bandwidth) split into a layout, scored
 * under `policy`. The core splits fan out across the pool, and
 * their bests merge in enumeration order with the strict-< rule of
 * the scan inside each, so the first global minimum in (core split,
 * way split) order wins at any thread count.
 */
template <typename Build>
OracleResult
searchPartitions(const Node &node, const OracleConfig &cfg,
                 const std::vector<int> &mins,
                 perf::CoreSharePolicy policy, const Build &build)
{
    // Best layout within one core split; es stays infinite when the
    // split admits no way composition, which keeps it out of the
    // merge.
    struct SplitBest
    {
        OracleResult result;
        double es = std::numeric_limits<double>::infinity();
    };
    const auto avail = node.config().availableResources();
    auto eval_split = [&](const std::vector<int> &cores) {
        SplitBest local;
        const auto bw = bwProportionalToCores(cores, avail.memBw);
        forEachComposition(avail.llcWays, mins, cfg.wayStep,
                           [&](const std::vector<int> &ways) {
            RegionLayout layout = build(cores, ways, bw);
            const auto rep = steadyStateEntropy(node, layout, policy, cfg);
            ++local.result.evaluated;
            if (rep.eS < local.es) {
                local.es = rep.eS;
                local.result.layout = std::move(layout);
                local.result.report = rep;
            }
        });
        return local;
    };
    exec::ThreadPool &pool = cfg.pool ? *cfg.pool : exec::globalPool();
    const auto locals = exec::parallelMap(
        pool, allCompositions(avail.cores, mins, kCoreStep), eval_split);

    OracleResult best;
    double best_es = std::numeric_limits<double>::infinity();
    for (const auto &l : locals) {
        best.evaluated += l.result.evaluated;
        if (l.es < best_es) {
            best_es = l.es;
            best.layout = l.result.layout;
            best.report = l.result.report;
        }
    }
    return best;
}

} // namespace

core::EntropyReport
steadyStateEntropy(const Node &node, const RegionLayout &layout,
                   perf::CoreSharePolicy policy,
                   const OracleConfig &cfg)
{
    perf::ContentionModel model(node.config());
    const auto demands = node.demandsAt(0.0);
    const auto out = model.evaluate(layout, demands, policy);

    std::vector<core::LcObservation> lc;
    std::vector<core::BeObservation> be;
    for (AppId i = 0; i < node.numApps(); ++i) {
        const auto &p = node.profile(i);
        const auto ui = static_cast<std::size_t>(i);
        if (p.latencyCritical) {
            const double load = node.loadAt(i, 0.0);
            const double lambda = p.arrivalRate(load);
            const double cap = out[ui].serviceRate;
            // Saturated, the backlog sits at the generator's cap and
            // drains ahead of every request (cf. the epoch simulator).
            const double backlog = lambda > cap
                ? perf::backlogCap(lambda, perf::kDefaultQueueCapSeconds)
                : 0.0;
            const double t = perf::lcTailSeconds(
                out[ui].coreEquivalents, out[ui].perServerRate, cap,
                lambda, p.svcMultAt(cfg.tailPercentile),
                out[ui].serviceStretch, backlog, cfg.tailPercentile);
            lc.push_back(
                {p.soloTailPercentileMs(load, cfg.tailPercentile),
                 p.baseLatencyMs + 1000.0 * t,
                 p.tailThresholdMs});
        } else {
            be.push_back({p.ipcSolo, out[ui].ipc});
        }
    }
    return core::computeEntropy(lc, be, cfg.ri);
}

OracleResult
bestIsolatedPartition(const Node &node, const OracleConfig &cfg)
{
    const auto avail = node.config().availableResources();
    const auto &lc = node.lcApps();
    const bool has_be = !node.beApps().empty();
    const auto groups = lc.size() + (has_be ? 1 : 0);
    assert(groups >= 1);

    return searchPartitions(
        node, cfg, std::vector<int>(groups, 1),
        perf::CoreSharePolicy::FairShare,
        [&](const std::vector<int> &cores, const std::vector<int> &ways,
            const std::vector<int> &bw) {
            RegionLayout layout(avail);
            for (std::size_t g = 0; g < lc.size(); ++g) {
                Region r;
                r.name = "iso" + std::to_string(lc[g]);
                r.shared = false;
                r.members = {lc[g]};
                r.res = {cores[g], ways[g], bw[g]};
                layout.addRegion(std::move(r));
            }
            if (has_be) {
                Region pool;
                pool.name = "bepool";
                pool.shared = true;
                pool.members = node.beApps();
                const auto g = lc.size();
                pool.res = {cores[g], ways[g], bw[g]};
                layout.addRegion(std::move(pool));
            }
            return layout;
        });
}

OracleResult
bestHybridPartition(const Node &node, const OracleConfig &cfg)
{
    const auto avail = node.config().availableResources();
    const auto &lc = node.lcApps();

    // Group 0 is the shared region (min 1 core / 1 way so that BE
    // members stay viable); iso regions may be empty.
    std::vector<int> mins(lc.size() + 1, 0);
    mins[0] = 1;

    std::vector<AppId> everyone = lc;
    everyone.insert(everyone.end(), node.beApps().begin(),
                    node.beApps().end());

    return searchPartitions(
        node, cfg, mins, perf::CoreSharePolicy::LcPriority,
        [&](const std::vector<int> &cores, const std::vector<int> &ways,
            const std::vector<int> &bw) {
            RegionLayout layout(avail);
            Region shared;
            shared.name = "shared";
            shared.shared = true;
            shared.members = everyone;
            shared.res = {cores[0], ways[0], bw[0]};
            layout.addRegion(std::move(shared));
            for (std::size_t g = 0; g < lc.size(); ++g) {
                Region r;
                r.name = "iso" + std::to_string(lc[g]);
                r.shared = false;
                r.members = {lc[g]};
                r.res = {cores[g + 1], ways[g + 1], bw[g + 1]};
                layout.addRegion(std::move(r));
            }
            return layout;
        });
}

} // namespace ahq::cluster
