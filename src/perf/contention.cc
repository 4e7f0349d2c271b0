/**
 * @file
 * Contention model implementation.
 *
 * Hot-path note: evaluate() runs once (or more, under schedulers that
 * probe candidate layouts) per simulated epoch, so everything that
 * does not change across the fixed-point iterations — iso-core
 * grants, per-app offered load, MBA caps, shared-region member
 * splits — is computed once per call, and all loop state lives in a
 * reusable workspace instead of per-iteration vectors.
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
 * Weighted max-min water-filling: distribute capacity among demands
 * with the given weights, never exceeding a consumer's cap. Writes
 * the grants into @p grant (scratch @p frozen is resized to match).
 */
void
waterFillInto(double capacity, const std::vector<double> &caps,
              const std::vector<double> &weights,
              std::vector<double> &grant, std::vector<char> &frozen)
{
    const std::size_t n = caps.size();
    grant.assign(n, 0.0);
    frozen.assign(n, 0);
    double remaining = capacity;
    for (int round = 0; round < static_cast<int>(n) + 1; ++round) {
        double weight_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!frozen[i])
                weight_sum += weights[i];
        }
        if (weight_sum <= 0.0 || remaining <= 1e-12)
            break;
        bool saturated = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (frozen[i])
                continue;
            const double offer = remaining * weights[i] / weight_sum;
            if (grant[i] + offer >= caps[i] - 1e-12) {
                saturated = true;
            }
        }
        double consumed = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (frozen[i])
                continue;
            const double offer = remaining * weights[i] / weight_sum;
            const double take = std::min(offer, caps[i] - grant[i]);
            grant[i] += take;
            consumed += take;
            if (grant[i] >= caps[i] - 1e-12)
                frozen[i] = 1;
        }
        remaining -= consumed;
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

    Workspace &ws = ws_;

    // Exact-key memo: an epoch whose layout and demands repeat a
    // previous evaluation gets the stored outcomes back — bitwise
    // what recomputation would produce.
    buildMemoKey(layout, demands, policy, ws.memoKey);
    if (const auto *cached = memo_.find(ws.memoKey)) {
        out = *cached;
        return;
    }

    ws.st.assign(n, AppState{});
    std::vector<AppState> &st = ws.st;
    // Hoist the per-app ideal CPI (constant across the fixed point;
    // CpiModel::speed would otherwise recompute it per call).
    ws.cpiIdeal.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const AppDemand &d = demands[i];
        ws.cpiIdeal[i] = d.cpi.cpiIdeal(ideal_ways);
        st[i].ways = std::max(
            1.0, static_cast<double>(layout.reachable(
                     static_cast<AppId>(i), ResourceKind::LlcWays)));
        st[i].speed = ws.cpiIdeal[i] / d.cpi.cpi(st[i].ways, 1.0);
    }

    // ---- iteration-invariant precompute -------------------------
    // Isolated core grants never change across iterations.
    ws.isoLc.assign(n, 0.0);
    ws.isoBe.assign(n, 0.0);
    // Per-app MBA cap: sum of the app's regions' bandwidth units
    // (integer-valued, so the region iteration order cannot change
    // the sum). Shared-region units count fully — they are a cap,
    // not a grant; contention shows up through rho.
    ws.capGibps.assign(n, 0.0);
    // Shared-region member splits by kind.
    ws.lcOf.resize(static_cast<std::size_t>(layout.numRegions()));
    ws.beOf.resize(static_cast<std::size_t>(layout.numRegions()));
    for (RegionId r = 0; r < layout.numRegions(); ++r) {
        const Region &reg = layout.region(r);
        auto &lc = ws.lcOf[static_cast<std::size_t>(r)];
        auto &be = ws.beOf[static_cast<std::size_t>(r)];
        lc.clear();
        be.clear();
        if (reg.members.empty())
            continue;
        for (AppId m : reg.members) {
            ws.capGibps[static_cast<std::size_t>(m)] +=
                static_cast<double>(reg.res.memBw);
            if (demands[static_cast<std::size_t>(m)].latencyCritical)
                lc.push_back(m);
            else
                be.push_back(m);
        }
        if (!reg.shared) {
            // Non-shared regions are single-member by construction of
            // all scheduler layouts; split evenly if not.
            const double per = static_cast<double>(reg.res.cores) /
                static_cast<double>(reg.members.size());
            for (AppId m : reg.members) {
                const auto i = static_cast<std::size_t>(m);
                if (demands[i].latencyCritical)
                    ws.isoLc[i] += per;
                else
                    ws.isoBe[i] += per;
            }
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        ws.capGibps[i] =
            std::max(0.25, ws.capGibps[i]) * bw_per_unit;
    }
    // LC offered load in core-seconds per second (at speed 1).
    ws.lambda.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        ws.lambda[i] =
            demands[i].arrivalRate * demands[i].serviceTimeMs / 1000.0;
    }

    const double alpha = traits_.damping;

    for (int iter = 0; iter < traits_.iterations; ++iter) {
        // Bitwise convergence detector: the next iteration's inputs
        // are exactly this iterate's {ways, mbaScale, dilation,
        // speed, stretch}. When an iteration leaves all five bitwise
        // unchanged, every remaining iteration reproduces the same
        // state, so breaking early is output-identical (NaNs compare
        // unequal to themselves and simply disable the exit).
        bool changed = false;

        // ---- core grant reset (iso grants are precomputed) ------
        ws.prevStretch.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            ws.prevStretch[i] = st[i].stretch;
            st[i].isoCores = ws.isoLc[i];
            st[i].sharedGrant = 0.0;
            st[i].stretch = 1.0;
            st[i].beCores = ws.isoBe[i];
        }

        // ---- shared region core sharing -------------------------
        for (RegionId r = 0; r < layout.numRegions(); ++r) {
            const Region &reg = layout.region(r);
            if (!reg.shared || reg.members.empty())
                continue;
            const double c_r = static_cast<double>(reg.res.cores);

            const auto &lc = ws.lcOf[static_cast<std::size_t>(r)];
            const auto &be = ws.beOf[static_cast<std::size_t>(r)];

            // Mean work each LC member pushes into this region.
            ws.resid.assign(lc.size(), 0.0);
            ws.burstCap.assign(lc.size(), 0.0);
            for (std::size_t k = 0; k < lc.size(); ++k) {
                const auto i = static_cast<std::size_t>(lc[k]);
                const auto &d = demands[i];
                // Timeslice stretching (previous iterate) inflates
                // the occupancy, which feeds back into the stretch —
                // the compounding that makes heavy oversubscription
                // catastrophic on real CFS nodes.
                const double util = ws.lambda[i] /
                    std::max(1e-9, st[i].speed) * ws.prevStretch[i];
                ws.resid[k] = std::max(0.0, util - st[i].isoCores);
                ws.burstCap[k] = std::max(
                    0.0, static_cast<double>(d.threads) -
                        st[i].isoCores);
            }

            if (policy == CoreSharePolicy::LcPriority) {
                double occupied = 0.0;
                for (std::size_t k = 0; k < lc.size(); ++k)
                    occupied += std::min(ws.resid[k], ws.burstCap[k]);
                if (occupied <= c_r) {
                    // Stable: each LC app can burst into whatever the
                    // other LC apps leave idle on average.
                    for (std::size_t k = 0; k < lc.size(); ++k) {
                        const double own =
                            std::min(ws.resid[k], ws.burstCap[k]);
                        const double avail = c_r - (occupied - own);
                        st[static_cast<std::size_t>(lc[k])]
                            .sharedGrant += std::min(ws.burstCap[k],
                                                     avail);
                    }
                } else if (occupied > 0.0) {
                    // Overload: ration proportionally to demand.
                    for (std::size_t k = 0; k < lc.size(); ++k) {
                        const double own =
                            std::min(ws.resid[k], ws.burstCap[k]);
                        st[static_cast<std::size_t>(lc[k])]
                            .sharedGrant += c_r * own / occupied;
                    }
                }
                // BE apps get the leftover, water-filled by threads.
                const double c_be = std::max(0.0, c_r - occupied);
                if (!be.empty() && c_be > 0.0) {
                    ws.caps.clear();
                    ws.weights.clear();
                    for (AppId m : be) {
                        const auto &d =
                            demands[static_cast<std::size_t>(m)];
                        const double cap =
                            std::max(0.0,
                                     static_cast<double>(d.threads) -
                                         st[static_cast<std::size_t>(m)]
                                             .beCores);
                        ws.caps.push_back(cap);
                        ws.weights.push_back(
                            static_cast<double>(d.threads));
                    }
                    waterFillInto(c_be, ws.caps, ws.weights,
                                  ws.grants, ws.frozen);
                    for (std::size_t k = 0; k < be.size(); ++k) {
                        st[static_cast<std::size_t>(be[k])].beCores +=
                            ws.grants[k];
                    }
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
                ws.activeLc.assign(lc.size(), 0.0);
                for (std::size_t k = 0; k < lc.size(); ++k) {
                    if (ws.resid[k] > 0.0) {
                        ws.activeLc[k] = std::min(
                            ws.burstCap[k], 1.2 * ws.resid[k] + 0.5);
                    }
                    active_total += ws.activeLc[k];
                }
                for (AppId m : be) {
                    active_total += static_cast<double>(
                        demands[static_cast<std::size_t>(m)].threads);
                }
                if (active_total <= c_r) {
                    // Enough cores: everyone can burst into the
                    // average idle capacity of the others.
                    for (std::size_t k = 0; k < lc.size(); ++k) {
                        const double avail =
                            c_r - (active_total - ws.activeLc[k]);
                        st[static_cast<std::size_t>(lc[k])]
                            .sharedGrant += std::min(ws.burstCap[k],
                                                     avail);
                    }
                    for (AppId m : be) {
                        const auto i = static_cast<std::size_t>(m);
                        st[i].beCores += static_cast<double>(
                            demands[i].threads);
                    }
                } else {
                    const double region_stretch = active_total / c_r;
                    // Thread-weighted fair sharing, capped at what
                    // each member's runnable threads can occupy.
                    ws.caps.clear();
                    ws.weights.clear();
                    for (std::size_t k = 0; k < lc.size(); ++k) {
                        ws.caps.push_back(
                            std::min(ws.burstCap[k],
                                     1.3 * ws.activeLc[k]));
                        ws.weights.push_back(static_cast<double>(
                            demands[static_cast<std::size_t>(lc[k])]
                                .threads));
                    }
                    for (AppId m : be) {
                        const auto i = static_cast<std::size_t>(m);
                        ws.caps.push_back(static_cast<double>(
                            demands[i].threads));
                        ws.weights.push_back(static_cast<double>(
                            demands[i].threads));
                    }
                    waterFillInto(c_r, ws.caps, ws.weights,
                                  ws.grants, ws.frozen);
                    for (std::size_t k = 0; k < lc.size(); ++k) {
                        const auto i =
                            static_cast<std::size_t>(lc[k]);
                        st[i].sharedGrant += ws.grants[k];
                        st[i].stretch =
                            std::max(st[i].stretch, region_stretch);
                    }
                    for (std::size_t k = 0; k < be.size(); ++k) {
                        const auto i =
                            static_cast<std::size_t>(be[k]);
                        st[i].beCores += ws.grants[lc.size() + k];
                    }
                }
            }
        }

        // Cap LC server counts at thread counts and compute busy
        // cores; stretched servers provide proportionally less
        // capacity, which the per-server rate accounts for below.
        for (std::size_t i = 0; i < n; ++i) {
            const auto &d = demands[i];
            if (d.latencyCritical) {
                const double kappa = std::min(
                    static_cast<double>(d.threads),
                    st[i].isoCores + st[i].sharedGrant);
                const double util =
                    ws.lambda[i] / std::max(1e-9, st[i].speed);
                st[i].busyCores = std::min(util, kappa);
            } else {
                st[i].beCores = std::min(
                    st[i].beCores, static_cast<double>(d.threads));
                st[i].busyCores = st[i].beCores;
            }
        }

        // ---- LLC way sharing -------------------------------------
        ws.newWays.assign(n, 0.0);
        for (RegionId r = 0; r < layout.numRegions(); ++r) {
            const Region &reg = layout.region(r);
            if (reg.members.empty() || reg.res.llcWays == 0)
                continue;
            if (!reg.shared) {
                const double per =
                    static_cast<double>(reg.res.llcWays) /
                    static_cast<double>(reg.members.size());
                for (AppId m : reg.members)
                    ws.newWays[static_cast<std::size_t>(m)] += per;
                continue;
            }
            double intensity_sum = 0.0;
            ws.intensity.assign(reg.members.size(), 0.0);
            for (std::size_t k = 0; k < reg.members.size(); ++k) {
                const auto i =
                    static_cast<std::size_t>(reg.members[k]);
                const double occ = std::max(0.02, st[i].busyCores);
                ws.intensity[k] =
                    demands[i].cpi.mrc().accessIntensity(st[i].ways) *
                    occ;
                intensity_sum += ws.intensity[k];
            }
            if (intensity_sum <= 0.0)
                continue;
            for (std::size_t k = 0; k < reg.members.size(); ++k) {
                const auto i =
                    static_cast<std::size_t>(reg.members[k]);
                ws.newWays[i] +=
                    static_cast<double>(reg.res.llcWays) *
                    ws.intensity[k] / intensity_sum;
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            const double next_ways = damp(
                st[i].ways, std::max(0.25, ws.newWays[i]), alpha);
            changed = changed || next_ways != st[i].ways;
            st[i].ways = next_ways;
        }

        // The bandwidth and speed updates below both evaluate the
        // miss rate at this iterate's (just damped) way allocation;
        // one evaluation serves both bitwise-identically.
        ws.mpki.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            ws.mpki[i] = demands[i].cpi.mrc().mpki(st[i].ways);

        // ---- memory bandwidth ------------------------------------
        // Machine pressure counts MBA-throttled traffic: a capped
        // consumer stops pressuring the bus beyond its partition.
        double total_demand = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            st[i].bwDemand = st[i].busyCores *
                demands[i].cpi.bwDemandPerCoreWithMpki(
                    ws.mpki[i], st[i].dilation);
            total_demand += st[i].bwDemand * st[i].mbaScale;
        }
        const double rho_machine = total_demand / machine_bw_cap;

        const double new_dilation = bwModel.dilation(rho_machine);
        for (std::size_t i = 0; i < n; ++i) {
            const double new_scale = bwModel.throughputScale(
                st[i].bwDemand, ws.capGibps[i]);
            const double next_scale =
                damp(st[i].mbaScale, new_scale, alpha);
            const double next_dilation =
                damp(st[i].dilation, new_dilation, alpha);
            changed = changed || next_scale != st[i].mbaScale ||
                next_dilation != st[i].dilation;
            st[i].mbaScale = next_scale;
            st[i].dilation = next_dilation;
        }

        // ---- speed update ----------------------------------------
        for (std::size_t i = 0; i < n; ++i) {
            const double raw =
                ws.cpiIdeal[i] /
                demands[i].cpi.cpiWithMpki(ws.mpki[i],
                                           st[i].dilation) *
                st[i].mbaScale;
            const double next_speed = damp(st[i].speed, raw, alpha);
            changed = changed || next_speed != st[i].speed;
            st[i].speed = next_speed;
        }
        for (std::size_t i = 0; i < n && !changed; ++i)
            changed = st[i].stretch != ws.prevStretch[i];
        if (!changed)
            break;
    }

    // ---- produce outcomes ---------------------------------------
    out.assign(n, PerfOutcome{});
    for (std::size_t i = 0; i < n; ++i) {
        const auto &d = demands[i];
        PerfOutcome &o = out[i];
        o.effectiveWays = st[i].ways;
        o.bwDilation = st[i].dilation;
        o.speed = st[i].speed;
        o.serviceStretch = st[i].stretch;
        o.bwDemandGibps = st[i].bwDemand;
        if (d.latencyCritical) {
            const double kappa = std::min(
                static_cast<double>(d.threads),
                st[i].isoCores + st[i].sharedGrant);
            o.coreEquivalents = std::max(kappa, 1e-6);
            // Base per-core rate, requests/s.
            const double mu0 =
                1000.0 * st[i].speed / d.serviceTimeMs;
            // Timeslicing stretches latency, not throughput: the
            // granted cores deliver their full service rate, and the
            // stretch is surfaced separately for the latency model.
            // Shared-region cores pay the context-switch/pollution
            // penalty; the app's own thread count bounds capacity.
            const double capacity = std::min(
                static_cast<double>(d.threads) * mu0,
                (st[i].isoCores +
                 st[i].sharedGrant /
                     traits_.sharedServicePenalty) * mu0);
            o.serviceRate = std::max(capacity, 1e-9);
            o.perServerRate = o.serviceRate / o.coreEquivalents;
            o.utilization = d.arrivalRate / o.serviceRate;
            o.ipc = 0.0;
        } else {
            o.coreEquivalents = st[i].beCores;
            o.ipc = d.ipcSolo * st[i].speed *
                std::min(1.0, st[i].beCores /
                    std::max(1.0, static_cast<double>(d.threads)));
            o.serviceRate = 0.0;
            o.perServerRate = 0.0;
            o.utilization = 0.0;
        }
    }
    memo_.store(ws.memoKey, out);
}

} // namespace ahq::perf
