/**
 * @file
 * Contention model implementation.
 *
 * Hot-path note: under time-varying load every epoch misses the memo
 * and runs the whole fixed point, so a miss first compiles the layout
 * and the demands' static fields into the workspace's flat arrays:
 * iso-core grants, LC burst caps, MBA caps, offered load, the ideal
 * CPI and overlapped miss penalty, the shared regions' LC and BE
 * member lists and the way regions. Each iteration then computes
 * every repeated subexpression once: lambda / speed serves the region
 * loop and the busy cores, one miss term serves the bandwidth and
 * speed updates, way stealing reads the mpki the previous iterate
 * computed at exactly these ways, and water-filling computes each
 * offer once per round. Every reuse is bitwise identical to
 * recomputation, because every expression keeps its operands and
 * order and every sum over regions stays in region order; the golden
 * digests and the random-corpus digest pin that (DESIGN.md §12).
 */

#include "perf/contention.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace ahq::perf
{

using machine::AppId;
using machine::Region;
using machine::RegionId;
using machine::RegionLayout;
using machine::ResourceKind;

namespace
{

/**
 * Entries of the exact-key evaluation memo. Hits return
 * byte-identical outcomes for byte-identical inputs, so the size
 * changes no observable result — only the cost of epochs whose
 * layout and demands repeat.
 */
constexpr std::size_t kMemoCapacity = 64;

double
damp(double old_v, double new_v, double alpha)
{
    return (1.0 - alpha) * old_v + alpha * new_v;
}

/**
 * Weighted max-min water-filling: distribute capacity among n
 * consumers with the given weights, never exceeding a consumer's
 * cap. Writes the grants into @p grant; @p frozen is scratch.
 */
void
waterFill(double capacity, std::size_t n, const double *caps,
          const double *weights, double *grant, char *frozen)
{
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        grant[i] = 0.0;
        frozen[i] = 0;
        weight_sum += weights[i];
    }
    double remaining = capacity;
    for (std::size_t round = 0; round <= n; ++round) {
        if (weight_sum <= 0.0 || remaining <= 1e-12)
            break;
        // One pass per round: a member's saturation test reads only
        // its own grant from before the round, and the next round's
        // weight sum accumulates in index order over the members
        // still unfrozen.
        bool saturated = false;
        double consumed = 0.0;
        double next_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (frozen[i])
                continue;
            const double offer = remaining * weights[i] / weight_sum;
            saturated = saturated || grant[i] + offer >= caps[i] - 1e-12;
            const double take = std::min(offer, caps[i] - grant[i]);
            grant[i] += take;
            consumed += take;
            if (grant[i] >= caps[i] - 1e-12)
                frozen[i] = 1;
            else
                next_sum += weights[i];
        }
        remaining -= consumed;
        weight_sum = next_sum;
        if (!saturated)
            break;
    }
}

/**
 * Canonicalise every model input evaluate() reads into a flat key of
 * doubles: the policy, each region's shape/resources/members and each
 * app's demand and curve parameters. Two calls producing the same key
 * are guaranteed to compute byte-identical outcomes.
 */
void
buildMemoKey(const RegionLayout &layout,
             const std::vector<AppDemand> &demands,
             CoreSharePolicy policy, std::vector<double> &key)
{
    key.clear();
    key.push_back(static_cast<double>(policy));
    key.push_back(static_cast<double>(layout.numRegions()));
    for (RegionId r = 0; r < layout.numRegions(); ++r) {
        const Region &reg = layout.region(r);
        key.push_back(reg.shared ? 1.0 : 0.0);
        key.push_back(static_cast<double>(reg.res.cores));
        key.push_back(static_cast<double>(reg.res.llcWays));
        key.push_back(static_cast<double>(reg.res.memBw));
        key.push_back(static_cast<double>(reg.members.size()));
        for (AppId m : reg.members)
            key.push_back(static_cast<double>(m));
    }
    key.push_back(static_cast<double>(demands.size()));
    for (const AppDemand &d : demands) {
        key.push_back(d.latencyCritical ? 1.0 : 0.0);
        key.push_back(d.arrivalRate);
        key.push_back(d.serviceTimeMs);
        key.push_back(d.ipcSolo);
        key.push_back(static_cast<double>(d.threads));
        const CpiTraits &t = d.cpi.traits();
        key.push_back(t.cpiBase);
        key.push_back(t.missPenaltyCycles);
        key.push_back(t.mlp);
        key.push_back(t.coreFreqGhz);
        key.push_back(t.bytesPerMiss);
        const MissRateCurve &m = d.cpi.mrc();
        key.push_back(m.mpkiMax());
        key.push_back(m.mpkiMin());
        key.push_back(m.waysHalf());
    }
}

} // namespace

ContentionModel::ContentionModel(machine::MachineConfig config,
                                 ContentionTraits traits)
    : config_(std::move(config)), traits_(traits),
      bwModel(traits.bandwidth), memo_(kMemoCapacity)
{
    assert(config_.valid());
    assert(traits_.iterations > 0);
    assert(traits_.damping > 0.0 && traits_.damping <= 1.0);
}

std::vector<PerfOutcome>
ContentionModel::evaluate(const RegionLayout &layout,
                          const std::vector<AppDemand> &demands,
                          CoreSharePolicy policy) const
{
    std::vector<PerfOutcome> out;
    evaluateInto(layout, demands, policy, out);
    return out;
}

void
ContentionModel::evaluateInto(const RegionLayout &layout,
                              const std::vector<AppDemand> &demands,
                              CoreSharePolicy policy,
                              std::vector<PerfOutcome> &out) const
{
    assert(layout.valid());
    const std::size_t n = demands.size();
    // "Ideal" conditions use the machine's full physical cache, as the
    // paper measures TL_i0 / IPC_solo with ample resources.
    const double ideal_ways = static_cast<double>(config_.totalLlcWays);
    const double bw_per_unit = config_.gibpsPerBwUnit();
    const double machine_bw_cap =
        config_.availableMemBwUnits * bw_per_unit;
    const double alpha = traits_.damping;

    Workspace &ws = ws_;

    // Exact-key memo: an epoch whose layout and demands repeat a
    // previous evaluation gets the stored outcomes back — bitwise
    // what recomputation would produce.
    buildMemoKey(layout, demands, policy, ws.memoKey);
    if (const auto *cached = memo_.find(ws.memoKey)) {
        out = *cached;
        return;
    }

    // ---- plan: compile the call's static inputs once -------------
    for (auto *col : {&ws.threads, &ws.lambda, &ws.cpiIdeal, &ws.penalty,
                      &ws.isoLc, &ws.isoBe, &ws.burstCap, &ws.capGibps,
                      &ws.speed, &ws.ways, &ws.dilation, &ws.mbaScale,
                      &ws.stretch, &ws.prevStretch, &ws.sharedGrant,
                      &ws.beCores, &ws.busy, &ws.bwDemand, &ws.load,
                      &ws.mpki, &ws.missTerm, &ws.newWays})
        col->resize(n);
    ws.lc.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        ws.lc[i] = demands[i].latencyCritical;
        ws.isoLc[i] = ws.isoBe[i] = ws.capGibps[i] = 0.0; // summed below
    }
    ws.coreRegions.clear();
    ws.coreMembers.clear();
    ws.wayRegions.clear();
    ws.wayMembers.clear();
    for (RegionId r = 0; r < layout.numRegions(); ++r) {
        const Region &reg = layout.region(r);
        if (reg.members.empty())
            continue;
        const double members = static_cast<double>(reg.members.size());
        for (AppId m : reg.members) {
            const auto i = static_cast<std::size_t>(m);
            // Per-app MBA cap: the app's regions' bandwidth units
            // (integer-valued, so the order cannot change the sum).
            // Shared-region units count fully — they are a cap, not
            // a grant; contention shows up through rho.
            ws.capGibps[i] += static_cast<double>(reg.res.memBw);
            // Non-shared regions are single-member in every
            // scheduler layout; split evenly if not.
            if (!reg.shared) {
                (ws.lc[i] ? ws.isoLc : ws.isoBe)[i] +=
                    static_cast<double>(reg.res.cores) / members;
            }
        }
        if (reg.shared) {
            // LC members, then BE members, each in member order.
            Workspace::CoreRegion c{static_cast<double>(reg.res.cores),
                                    ws.coreMembers.size(), 0, 0};
            for (AppId m : reg.members) {
                if (ws.lc[static_cast<std::size_t>(m)])
                    ws.coreMembers.push_back(static_cast<std::size_t>(m));
            }
            c.mid = ws.coreMembers.size();
            for (AppId m : reg.members) {
                if (!ws.lc[static_cast<std::size_t>(m)])
                    ws.coreMembers.push_back(static_cast<std::size_t>(m));
            }
            c.end = ws.coreMembers.size();
            ws.coreRegions.push_back(c);
        }
        if (reg.res.llcWays != 0) {
            const double ways = static_cast<double>(reg.res.llcWays);
            ws.wayRegions.push_back({reg.shared, ways, ways / members,
                                     ws.wayMembers.size(),
                                     ws.wayMembers.size() +
                                         reg.members.size()});
            for (AppId m : reg.members)
                ws.wayMembers.push_back(static_cast<std::size_t>(m));
        }
    }
    const std::size_t core_members = ws.coreMembers.size();
    ws.memberThreads.resize(core_members);
    for (std::size_t k = 0; k < core_members; ++k) {
        ws.memberThreads[k] = static_cast<double>(
            demands[ws.coreMembers[k]].threads);
    }
    for (auto *col : {&ws.own, &ws.caps, &ws.grants})
        col->resize(core_members);
    ws.frozen.resize(core_members);
    ws.intensity.resize(ws.wayMembers.size());

    for (std::size_t i = 0; i < n; ++i) {
        const AppDemand &d = demands[i];
        ws.threads[i] = static_cast<double>(d.threads);
        // LC offered load in core-seconds per second (at speed 1).
        ws.lambda[i] = d.arrivalRate * d.serviceTimeMs / 1000.0;
        ws.cpiIdeal[i] = d.cpi.cpiIdeal(ideal_ways);
        ws.penalty[i] = d.cpi.overlappedPenalty();
        // isoCores is reset to isoLc every iteration, so the LC
        // burst cap threads - isoCores never changes.
        ws.burstCap[i] = std::max(0.0, ws.threads[i] - ws.isoLc[i]);
        ws.capGibps[i] = std::max(0.25, ws.capGibps[i]) * bw_per_unit;
        ws.ways[i] = std::max(
            1.0, static_cast<double>(layout.reachable(
                     static_cast<AppId>(i), ResourceKind::LlcWays)));
        ws.mpki[i] = d.cpi.mrc().mpki(ws.ways[i]);
        ws.speed[i] = ws.cpiIdeal[i] / d.cpi.cpi(ws.ways[i], 1.0);
        ws.dilation[i] = 1.0;
        ws.mbaScale[i] = 1.0;
        ws.stretch[i] = 1.0;
    }

    const std::size_t *const core_of = ws.coreMembers.data();
    const std::size_t *const way_of = ws.wayMembers.data();
    for (int iter = 0; iter < traits_.iterations; ++iter) {
        // Bitwise convergence detector: the next iteration's inputs
        // are exactly this iterate's {ways, mbaScale, dilation,
        // speed, stretch}. When an iteration leaves all five bitwise
        // unchanged, every remaining iteration reproduces the same
        // state, so breaking early is output-identical (NaNs compare
        // unequal to themselves and simply disable the exit).
        bool changed = false;

        // ---- core grant reset (iso grants are precomputed) ------
        for (std::size_t i = 0; i < n; ++i) {
            ws.prevStretch[i] = ws.stretch[i];
            ws.stretch[i] = 1.0;
            ws.sharedGrant[i] = 0.0;
            ws.beCores[i] = ws.isoBe[i];
            // LC busy cores at this iterate's speed, before stretch.
            if (ws.lc[i])
                ws.load[i] = ws.lambda[i] / std::max(1e-9, ws.speed[i]);
        }

        // ---- shared region core sharing -------------------------
        for (const Workspace::CoreRegion &reg : ws.coreRegions) {
            const double c_r = reg.cores;
            // Mean work each LC member pushes into this region.
            // Timeslice stretching (previous iterate) inflates the
            // occupancy, which feeds back into the stretch — the
            // compounding that makes heavy oversubscription
            // catastrophic on real CFS nodes.
            auto resid = [&](std::size_t i) {
                return std::max(0.0, ws.load[i] * ws.prevStretch[i] -
                                         ws.isoLc[i]);
            };
            if (policy == CoreSharePolicy::LcPriority) {
                double occupied = 0.0;
                for (std::size_t k = reg.begin; k < reg.mid; ++k) {
                    const std::size_t i = core_of[k];
                    ws.own[k] = std::min(resid(i), ws.burstCap[i]);
                    occupied += ws.own[k];
                }
                if (occupied <= c_r) {
                    // Stable: each LC app can burst into whatever the
                    // other LC apps leave idle on average.
                    for (std::size_t k = reg.begin; k < reg.mid; ++k) {
                        const std::size_t i = core_of[k];
                        ws.sharedGrant[i] += std::min(
                            ws.burstCap[i], c_r - (occupied - ws.own[k]));
                    }
                } else if (occupied > 0.0) {
                    // Overload: ration proportionally to demand.
                    for (std::size_t k = reg.begin; k < reg.mid; ++k) {
                        ws.sharedGrant[core_of[k]] +=
                            c_r * ws.own[k] / occupied;
                    }
                }
                // BE apps get the leftover, water-filled by threads.
                const double c_be = std::max(0.0, c_r - occupied);
                if (reg.mid < reg.end && c_be > 0.0) {
                    for (std::size_t k = reg.mid; k < reg.end; ++k) {
                        const std::size_t i = core_of[k];
                        ws.caps[k] =
                            std::max(0.0, ws.threads[i] - ws.beCores[i]);
                    }
                    waterFill(c_be, reg.end - reg.mid, &ws.caps[reg.mid],
                              &ws.memberThreads[reg.mid],
                              &ws.grants[reg.mid], &ws.frozen[reg.mid]);
                    for (std::size_t k = reg.mid; k < reg.end; ++k)
                        ws.beCores[core_of[k]] += ws.grants[k];
                }
            } else {
                // FairShare (CFS). Each LC app keeps roughly its
                // mean occupancy plus a partially-awake burst thread
                // runnable; BE threads are always runnable. When the
                // region is over-subscribed, cores are granted by
                // thread-weighted water-filling (the CFS weight) and
                // every request's service stretches by the runnable/
                // cores ratio (timeslicing + wake-up latency).
                double active_total = 0.0;
                for (std::size_t k = reg.begin; k < reg.mid; ++k) {
                    const std::size_t i = core_of[k];
                    const double r = resid(i);
                    ws.own[k] = r > 0.0
                        ? std::min(ws.burstCap[i], 1.2 * r + 0.5)
                        : 0.0;
                    active_total += ws.own[k];
                }
                for (std::size_t k = reg.mid; k < reg.end; ++k)
                    active_total += ws.memberThreads[k];
                if (active_total <= c_r) {
                    // Enough cores: everyone can burst into the
                    // average idle capacity of the others.
                    for (std::size_t k = reg.begin; k < reg.mid; ++k) {
                        const std::size_t i = core_of[k];
                        ws.sharedGrant[i] += std::min(
                            ws.burstCap[i],
                            c_r - (active_total - ws.own[k]));
                    }
                    for (std::size_t k = reg.mid; k < reg.end; ++k)
                        ws.beCores[core_of[k]] += ws.memberThreads[k];
                } else {
                    const double region_stretch = active_total / c_r;
                    // Thread-weighted fair sharing, capped at what
                    // each member's runnable threads can occupy.
                    for (std::size_t k = reg.begin; k < reg.mid; ++k) {
                        ws.caps[k] = std::min(ws.burstCap[core_of[k]],
                                              1.3 * ws.own[k]);
                    }
                    for (std::size_t k = reg.mid; k < reg.end; ++k)
                        ws.caps[k] = ws.memberThreads[k];
                    waterFill(c_r, reg.end - reg.begin,
                              &ws.caps[reg.begin],
                              &ws.memberThreads[reg.begin],
                              &ws.grants[reg.begin],
                              &ws.frozen[reg.begin]);
                    for (std::size_t k = reg.begin; k < reg.mid; ++k) {
                        const std::size_t i = core_of[k];
                        ws.sharedGrant[i] += ws.grants[k];
                        ws.stretch[i] =
                            std::max(ws.stretch[i], region_stretch);
                    }
                    for (std::size_t k = reg.mid; k < reg.end; ++k)
                        ws.beCores[core_of[k]] += ws.grants[k];
                }
            }
        }

        // Cap LC server counts at thread counts and compute busy
        // cores; stretched servers provide proportionally less
        // capacity, which the per-server rate accounts for below.
        for (std::size_t i = 0; i < n; ++i) {
            if (ws.lc[i]) {
                const double kappa = std::min(
                    ws.threads[i], ws.isoLc[i] + ws.sharedGrant[i]);
                ws.busy[i] = std::min(ws.load[i], kappa);
            } else {
                ws.beCores[i] = std::min(ws.beCores[i], ws.threads[i]);
                ws.busy[i] = ws.beCores[i];
            }
        }

        // ---- LLC way sharing -------------------------------------
        // Way stealing weighs each member by its access intensity at
        // its current ways, whose mpki the previous iterate (or, for
        // iteration 0, the plan) already computed.
        std::fill(ws.newWays.begin(), ws.newWays.end(), 0.0);
        for (const Workspace::WayRegion &reg : ws.wayRegions) {
            if (!reg.shared) {
                for (std::size_t k = reg.begin; k < reg.end; ++k)
                    ws.newWays[way_of[k]] += reg.share;
                continue;
            }
            double intensity_sum = 0.0;
            for (std::size_t k = reg.begin; k < reg.end; ++k) {
                const std::size_t i = way_of[k];
                const double occ = std::max(0.02, ws.busy[i]);
                ws.intensity[k] =
                    demands[i].cpi.mrc().intensityWithMpki(ws.mpki[i]) *
                    occ;
                intensity_sum += ws.intensity[k];
            }
            if (intensity_sum <= 0.0)
                continue;
            for (std::size_t k = reg.begin; k < reg.end; ++k) {
                ws.newWays[way_of[k]] +=
                    reg.ways * ws.intensity[k] / intensity_sum;
            }
        }
        // The bandwidth and speed updates below share the miss rate
        // and miss term at this iterate's (just damped) ways.
        for (std::size_t i = 0; i < n; ++i) {
            const double next_ways = damp(
                ws.ways[i], std::max(0.25, ws.newWays[i]), alpha);
            changed = changed || next_ways != ws.ways[i];
            ws.ways[i] = next_ways;
            ws.mpki[i] = demands[i].cpi.mrc().mpki(next_ways);
            ws.missTerm[i] = CpiModel::missTerm(ws.mpki[i], ws.penalty[i]);
        }

        // ---- memory bandwidth ------------------------------------
        // Machine pressure counts MBA-throttled traffic: a capped
        // consumer stops pressuring the bus beyond its partition.
        double total_demand = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const CpiModel &cpi = demands[i].cpi;
            ws.bwDemand[i] = ws.busy[i] *
                cpi.bwDemandPerCoreAtCpi(
                    cpi.cpiWithMissTerm(ws.missTerm[i], ws.dilation[i]),
                    ws.mpki[i]);
            total_demand += ws.bwDemand[i] * ws.mbaScale[i];
        }
        const double rho_machine = total_demand / machine_bw_cap;

        // ---- dilation, MBA throttle and speed update -------------
        const double new_dilation = bwModel.dilation(rho_machine);
        for (std::size_t i = 0; i < n; ++i) {
            const double next_scale = damp(
                ws.mbaScale[i],
                bwModel.throughputScale(ws.bwDemand[i], ws.capGibps[i]),
                alpha);
            const double next_dilation =
                damp(ws.dilation[i], new_dilation, alpha);
            const double raw = ws.cpiIdeal[i] /
                demands[i].cpi.cpiWithMissTerm(ws.missTerm[i],
                                               next_dilation) *
                next_scale;
            const double next_speed = damp(ws.speed[i], raw, alpha);
            changed = changed || next_scale != ws.mbaScale[i] ||
                next_dilation != ws.dilation[i] ||
                next_speed != ws.speed[i];
            ws.mbaScale[i] = next_scale;
            ws.dilation[i] = next_dilation;
            ws.speed[i] = next_speed;
        }
        for (std::size_t i = 0; i < n && !changed; ++i)
            changed = ws.stretch[i] != ws.prevStretch[i];
        if (!changed)
            break;
    }

    // ---- produce outcomes ---------------------------------------
    out.assign(n, PerfOutcome{});
    for (std::size_t i = 0; i < n; ++i) {
        const auto &d = demands[i];
        PerfOutcome &o = out[i];
        o.effectiveWays = ws.ways[i];
        o.bwDilation = ws.dilation[i];
        o.speed = ws.speed[i];
        o.serviceStretch = ws.stretch[i];
        o.bwDemandGibps = ws.bwDemand[i];
        if (d.latencyCritical) {
            const double kappa = std::min(
                ws.threads[i], ws.isoLc[i] + ws.sharedGrant[i]);
            o.coreEquivalents = std::max(kappa, 1e-6);
            // Base per-core rate, requests/s.
            const double mu0 = 1000.0 * ws.speed[i] / d.serviceTimeMs;
            // Timeslicing stretches latency, not throughput: the
            // granted cores deliver their full service rate, and the
            // stretch is surfaced separately for the latency model.
            // Shared-region cores pay the context-switch/pollution
            // penalty; the app's own thread count bounds capacity.
            const double capacity = std::min(
                ws.threads[i] * mu0,
                (ws.isoLc[i] +
                 ws.sharedGrant[i] / traits_.sharedServicePenalty) * mu0);
            o.serviceRate = std::max(capacity, 1e-9);
            o.perServerRate = o.serviceRate / o.coreEquivalents;
            o.utilization = d.arrivalRate / o.serviceRate;
            o.ipc = 0.0;
        } else {
            o.coreEquivalents = ws.beCores[i];
            o.ipc = d.ipcSolo * ws.speed[i] *
                std::min(1.0, ws.beCores[i] / std::max(1.0, ws.threads[i]));
            o.serviceRate = 0.0;
            o.perServerRate = 0.0;
            o.utilization = 0.0;
        }
    }
    memo_.store(ws.memoKey, out);
}

} // namespace ahq::perf
