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
 * digests and the random-corpus digest pin that (DESIGN.md §12). A
 * batch's misses run the same sequence per lane, lanes interleaved.
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
 * Fixed-point iterations. The damped iteration converges linearly at
 * about 0.45 per step, so the 20th iterate is a truncation about 1e-7
 * from the fixed point (ROADMAP item 2's tolerance stage would stop
 * at a stated residual instead).
 */
constexpr int kIterations = 20;

/** Damping factor of the fixed point (0 = frozen, 1 = jumpy). */
constexpr double kDamping = 0.6;

double
damp(double old_v, double new_v, double alpha)
{
    return (1.0 - alpha) * old_v + alpha * new_v;
}

/**
 * Weighted max-min water-filling: distribute capacity among n
 * consumers with the given weights, never exceeding a consumer's
 * cap. Consumer i's values sit at [i * S] of each array (one lane
 * of a lane column). Writes the grants into @p grant; @p frozen is
 * scratch.
 */
template <std::size_t S>
void
waterFill(double capacity, std::size_t n, const double *caps,
          const double *weights, double *grant, char *frozen)
{
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < n * S; i += S) {
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
        for (std::size_t i = 0; i < n * S; i += S) {
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
      bwModel(traits.bandwidth)
{
    assert(config_.valid());
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
    evaluateBatchInto(layout, {&demands, 1}, policy, {&out, 1});
}

void
ContentionModel::evaluateBatchInto(
    const RegionLayout &layout,
    std::span<const std::vector<AppDemand>> batch, CoreSharePolicy policy,
    std::span<std::vector<PerfOutcome>> outs) const
{
    assert(layout.valid());
    assert(outs.size() == batch.size());
    Workspace &ws = ws_;
    if (ws.memoKeys.size() < batch.size())
        ws.memoKeys.resize(batch.size());
    ws.hashes.resize(batch.size());
    ws.misses.clear();

    // Exact-key memo: a set whose layout and demands repeat a
    // previous evaluation gets the stored outcomes back — bitwise
    // what recomputation would produce. Every set is looked up
    // before any miss is stored, so hits are copied at once.
    for (std::size_t b = 0; b < batch.size(); ++b) {
        assert(std::ranges::equal(batch[b], batch[0], {},
                                  &AppDemand::latencyCritical,
                                  &AppDemand::latencyCritical));
        buildMemoKey(layout, batch[b], policy, ws.memoKeys[b]);
        if (const auto *cached = memo_.find(ws.memoKeys[b], ws.hashes[b]))
            outs[b] = *cached;
        else
            ws.misses.push_back(b);
    }
    if (ws.misses.empty())
        return;

    // The misses share the layout columns and run in lock-step passes
    // of at most four lanes. The lane count is a compile-time
    // constant, so a one-lane pass is the scalar kernel.
    using Solve = void (ContentionModel::*)(
        std::span<const std::vector<AppDemand>>, const std::size_t *,
        CoreSharePolicy, std::span<std::vector<PerfOutcome>>) const;
    static constexpr Solve kSolve[] = {
        &ContentionModel::solveLanes<1>, &ContentionModel::solveLanes<2>,
        &ContentionModel::solveLanes<3>, &ContentionModel::solveLanes<4>};
    compileLayout(layout, batch[0]);
    for (std::size_t k = 0; k < ws.misses.size(); k += 4) {
        const std::size_t left = ws.misses.size() - k;
        (this->*kSolve[std::min(left, std::size_t{4}) - 1])(
            batch, &ws.misses[k], policy, outs);
    }
    for (const std::size_t b : ws.misses)
        memo_.store(ws.hashes[b], ws.memoKeys[b], outs[b]);
}

void
ContentionModel::compileLayout(const RegionLayout &layout,
                               const std::vector<AppDemand> &demands) const
{
    Workspace &ws = ws_;
    const std::size_t n = demands.size();
    for (auto *col : {&ws.isoLc, &ws.isoBe, &ws.capGibps, &ws.ways0})
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
    const double bw_per_unit = config_.gibpsPerBwUnit();
    for (std::size_t i = 0; i < n; ++i) {
        ws.capGibps[i] = std::max(0.25, ws.capGibps[i]) * bw_per_unit;
        ws.ways0[i] = std::max(
            1.0, static_cast<double>(layout.reachable(
                     static_cast<AppId>(i), ResourceKind::LlcWays)));
    }
}

template <std::size_t L>
void
ContentionModel::solveLanes(std::span<const std::vector<AppDemand>> batch,
                            const std::size_t *lanes,
                            CoreSharePolicy policy,
                            std::span<std::vector<PerfOutcome>> outs) const
{
    Workspace &ws = ws_;
    const std::size_t n = ws.lc.size();
    // "Ideal" conditions use the machine's full physical cache, as the
    // paper measures TL_i0 / IPC_solo with ample resources.
    const double ideal_ways = static_cast<double>(config_.totalLlcWays);
    const double machine_bw_cap =
        config_.availableMemBwUnits * config_.gibpsPerBwUnit();
    const double alpha = kDamping;
    const AppDemand *dem[L];
    for (std::size_t l = 0; l < L; ++l)
        dem[l] = batch[lanes[l]].data();

    // ---- plan: compile the lanes' static inputs once -------------
    // Lane columns hold app (or member) i of lane l at i * L + l. The
    // iteration's app and member loops unroll their lanes, so each
    // phase issues the lanes' copies of an operation back to back and
    // per-lane sums stay in registers; each lane still sums in app
    // (or member) order. Water-filling runs lane by lane.
    for (auto *col : {&ws.threads, &ws.lambda, &ws.cpiIdeal, &ws.penalty,
                      &ws.burstCap, &ws.speed, &ws.ways, &ws.dilation,
                      &ws.mbaScale, &ws.stretch, &ws.prevStretch,
                      &ws.sharedGrant, &ws.beCores, &ws.busy,
                      &ws.bwDemand, &ws.load, &ws.mpki, &ws.missTerm,
                      &ws.newWays})
        col->resize(n * L);
    const std::size_t core_members = ws.coreMembers.size();
    for (auto *col : {&ws.memberThreads, &ws.own, &ws.caps, &ws.grants})
        col->resize(core_members * L);
    ws.frozen.resize(core_members * L);
    ws.intensity.resize(ws.wayMembers.size() * L);
    for (std::size_t y = 0; y < core_members * L; ++y) {
        ws.memberThreads[y] = static_cast<double>(
            dem[y % L][ws.coreMembers[y / L]].threads);
    }
    for (std::size_t x = 0; x < n * L; ++x) {
        const std::size_t i = x / L;
        const AppDemand &d = dem[x % L][i];
        ws.threads[x] = static_cast<double>(d.threads);
        // LC offered load in core-seconds per second (at speed 1).
        ws.lambda[x] = d.arrivalRate * d.serviceTimeMs / 1000.0;
        ws.cpiIdeal[x] = d.cpi.cpiIdeal(ideal_ways);
        ws.penalty[x] = d.cpi.overlappedPenalty();
        // isoCores is reset to isoLc every iteration, so the LC
        // burst cap threads - isoCores never changes.
        ws.burstCap[x] = std::max(0.0, ws.threads[x] - ws.isoLc[i]);
        ws.ways[x] = ws.ways0[i];
        ws.mpki[x] = d.cpi.mrc().mpki(ws.ways[x]);
        ws.speed[x] = ws.cpiIdeal[x] / d.cpi.cpi(ws.ways[x], 1.0);
        ws.dilation[x] = 1.0;
        ws.mbaScale[x] = 1.0;
        ws.stretch[x] = 1.0;
    }

    const std::size_t *const core_of = ws.coreMembers.data();
    const std::size_t *const way_of = ws.wayMembers.data();
    for (int iter = 0; iter < kIterations; ++iter) {
        // Bitwise convergence detector: the next iteration's inputs
        // are exactly this iterate's {ways, mbaScale, dilation,
        // speed, stretch}. When an iteration leaves all five bitwise
        // unchanged in every lane, every remaining iteration
        // reproduces the same state, so breaking early is
        // output-identical (NaNs compare unequal to themselves and
        // simply disable the exit). A lane that converges first
        // reproduces itself until the pass ends.
        bool changed = false;

        // ---- core grant reset (iso grants are precomputed) ------
        for (std::size_t i = 0; i < n; ++i) {
#pragma GCC unroll 4
            for (std::size_t x = i * L; x < i * L + L; ++x) {
                ws.prevStretch[x] = ws.stretch[x];
                ws.stretch[x] = 1.0;
                ws.sharedGrant[x] = 0.0;
                ws.beCores[x] = ws.isoBe[i];
                // LC busy cores at this iterate's speed, before
                // stretch.
                if (ws.lc[i])
                    ws.load[x] = ws.lambda[x] / std::max(1e-9, ws.speed[x]);
            }
        }

        // ---- shared region core sharing -------------------------
        for (const Workspace::CoreRegion &reg : ws.coreRegions) {
            const double c_r = reg.cores;
            // Mean work each LC member pushes into this region.
            // Timeslice stretching (previous iterate) inflates the
            // occupancy, which feeds back into the stretch — the
            // compounding that makes heavy oversubscription
            // catastrophic on real CFS nodes.
            auto resid = [&](std::size_t i, std::size_t x) {
                return std::max(0.0, ws.load[x] * ws.prevStretch[x] -
                                         ws.isoLc[i]);
            };
            // Water-fill lane l of members [from, to) by their caps.
            auto fill = [&](double capacity, std::size_t from,
                            std::size_t to, std::size_t l) {
                const std::size_t y = from * L + l;
                waterFill<L>(capacity, to - from, &ws.caps[y],
                             &ws.memberThreads[y], &ws.grants[y],
                             &ws.frozen[y]);
            };
            if (policy == CoreSharePolicy::LcPriority) {
                double occupied[L] = {};
                for (std::size_t k = reg.begin; k < reg.mid; ++k) {
                    const std::size_t i = core_of[k];
#pragma GCC unroll 4
                    for (std::size_t l = 0; l < L; ++l) {
                        const std::size_t x = i * L + l;
                        ws.own[k * L + l] =
                            std::min(resid(i, x), ws.burstCap[x]);
                        occupied[l] += ws.own[k * L + l];
                    }
                }
                for (std::size_t k = reg.begin; k < reg.mid; ++k) {
#pragma GCC unroll 4
                    for (std::size_t l = 0; l < L; ++l) {
                        const std::size_t x = core_of[k] * L + l;
                        if (occupied[l] <= c_r) {
                            // Stable: each LC app can burst into
                            // whatever the other LC apps leave idle
                            // on average.
                            ws.sharedGrant[x] += std::min(
                                ws.burstCap[x],
                                c_r - (occupied[l] - ws.own[k * L + l]));
                        } else if (occupied[l] > 0.0) {
                            // Overload: ration proportionally to
                            // demand.
                            ws.sharedGrant[x] +=
                                c_r * ws.own[k * L + l] / occupied[l];
                        }
                    }
                }
                // BE apps get the leftover, water-filled by threads.
                for (std::size_t l = 0; l < L; ++l) {
                    const double c_be = std::max(0.0, c_r - occupied[l]);
                    if (reg.mid == reg.end || c_be <= 0.0)
                        continue;
                    for (std::size_t k = reg.mid; k < reg.end; ++k) {
                        const std::size_t x = core_of[k] * L + l;
                        ws.caps[k * L + l] =
                            std::max(0.0, ws.threads[x] - ws.beCores[x]);
                    }
                    fill(c_be, reg.mid, reg.end, l);
                    for (std::size_t k = reg.mid; k < reg.end; ++k)
                        ws.beCores[core_of[k] * L + l] += ws.grants[k * L + l];
                }
            } else {
                // FairShare (CFS). Each LC app keeps roughly its
                // mean occupancy plus a partially-awake burst thread
                // runnable; BE threads are always runnable. When the
                // region is over-subscribed, cores are granted by
                // thread-weighted water-filling (the CFS weight) and
                // every request's service stretches by the runnable/
                // cores ratio (timeslicing + wake-up latency).
                double active_total[L] = {};
                for (std::size_t k = reg.begin; k < reg.mid; ++k) {
                    const std::size_t i = core_of[k];
#pragma GCC unroll 4
                    for (std::size_t l = 0; l < L; ++l) {
                        const std::size_t x = i * L + l;
                        const double r = resid(i, x);
                        ws.own[k * L + l] = r > 0.0
                            ? std::min(ws.burstCap[x], 1.2 * r + 0.5)
                            : 0.0;
                        active_total[l] += ws.own[k * L + l];
                    }
                }
                for (std::size_t k = reg.mid; k < reg.end; ++k) {
#pragma GCC unroll 4
                    for (std::size_t l = 0; l < L; ++l)
                        active_total[l] += ws.memberThreads[k * L + l];
                }
                for (std::size_t l = 0; l < L; ++l) {
                    if (active_total[l] <= c_r) {
                        // Enough cores: everyone can burst into the
                        // average idle capacity of the others.
                        for (std::size_t k = reg.begin; k < reg.mid; ++k) {
                            const std::size_t x = core_of[k] * L + l;
                            ws.sharedGrant[x] += std::min(
                                ws.burstCap[x],
                                c_r - (active_total[l] - ws.own[k * L + l]));
                        }
                        for (std::size_t k = reg.mid; k < reg.end; ++k)
                            ws.beCores[core_of[k] * L + l] +=
                                ws.memberThreads[k * L + l];
                        continue;
                    }
                    const double region_stretch = active_total[l] / c_r;
                    // Thread-weighted fair sharing, capped at what
                    // each member's runnable threads can occupy.
                    for (std::size_t k = reg.begin; k < reg.end; ++k) {
                        ws.caps[k * L + l] = k < reg.mid
                            ? std::min(ws.burstCap[core_of[k] * L + l],
                                       1.3 * ws.own[k * L + l])
                            : ws.memberThreads[k * L + l];
                    }
                    fill(c_r, reg.begin, reg.end, l);
                    for (std::size_t k = reg.begin; k < reg.mid; ++k) {
                        const std::size_t x = core_of[k] * L + l;
                        ws.sharedGrant[x] += ws.grants[k * L + l];
                        ws.stretch[x] = std::max(ws.stretch[x], region_stretch);
                    }
                    for (std::size_t k = reg.mid; k < reg.end; ++k)
                        ws.beCores[core_of[k] * L + l] += ws.grants[k * L + l];
                }
            }
        }

        // Cap LC server counts at thread counts and compute busy
        // cores; stretched servers provide proportionally less
        // capacity, which the per-server rate accounts for below.
        for (std::size_t i = 0; i < n; ++i) {
#pragma GCC unroll 4
            for (std::size_t x = i * L; x < i * L + L; ++x) {
                if (ws.lc[i]) {
                    const double kappa = std::min(
                        ws.threads[x], ws.isoLc[i] + ws.sharedGrant[x]);
                    ws.busy[x] = std::min(ws.load[x], kappa);
                } else {
                    ws.beCores[x] = std::min(ws.beCores[x], ws.threads[x]);
                    ws.busy[x] = ws.beCores[x];
                }
            }
        }

        // ---- LLC way sharing -------------------------------------
        // Way stealing weighs each member by its access intensity at
        // its current ways, whose mpki the previous iterate (or, for
        // iteration 0, the plan) already computed.
        std::fill(ws.newWays.begin(), ws.newWays.end(), 0.0);
        for (const Workspace::WayRegion &reg : ws.wayRegions) {
            if (!reg.shared) {
                for (std::size_t y = reg.begin * L; y < reg.end * L; ++y)
                    ws.newWays[way_of[y / L] * L + y % L] += reg.share;
                continue;
            }
            double intensity_sum[L] = {};
            for (std::size_t k = reg.begin; k < reg.end; ++k) {
                const std::size_t i = way_of[k];
#pragma GCC unroll 4
                for (std::size_t l = 0; l < L; ++l) {
                    const std::size_t x = i * L + l;
                    const double occ = std::max(0.02, ws.busy[x]);
                    ws.intensity[k * L + l] =
                        dem[l][i].cpi.mrc().intensityWithMpki(ws.mpki[x]) *
                        occ;
                    intensity_sum[l] += ws.intensity[k * L + l];
                }
            }
            for (std::size_t k = reg.begin; k < reg.end; ++k) {
#pragma GCC unroll 4
                for (std::size_t l = 0; l < L; ++l) {
                    if (!(intensity_sum[l] <= 0.0))
                        ws.newWays[way_of[k] * L + l] += reg.ways *
                            ws.intensity[k * L + l] / intensity_sum[l];
                }
            }
        }

        // ---- damped ways and memory bandwidth --------------------
        // The bandwidth and speed updates share the miss rate and
        // miss term at this iterate's (just damped) ways. Machine
        // pressure counts MBA-throttled traffic: a capped consumer
        // stops pressuring the bus beyond its partition.
        double total_demand[L] = {};
        for (std::size_t i = 0; i < n; ++i) {
#pragma GCC unroll 4
            for (std::size_t l = 0; l < L; ++l) {
                const std::size_t x = i * L + l;
                const CpiModel &cpi = dem[l][i].cpi;
                const double next_ways =
                    damp(ws.ways[x], std::max(0.25, ws.newWays[x]), alpha);
                changed |= next_ways != ws.ways[x];
                ws.ways[x] = next_ways;
                ws.mpki[x] = cpi.mrc().mpki(next_ways);
                ws.missTerm[x] = CpiModel::missTerm(ws.mpki[x], ws.penalty[x]);
                ws.bwDemand[x] = ws.busy[x] *
                    cpi.bwDemandPerCoreAtCpi(
                        cpi.cpiWithMissTerm(ws.missTerm[x], ws.dilation[x]),
                        ws.mpki[x]);
                total_demand[l] += ws.bwDemand[x] * ws.mbaScale[x];
            }
        }

        // ---- dilation, MBA throttle and speed update -------------
        double new_dilation[L];
#pragma GCC unroll 4
        for (std::size_t l = 0; l < L; ++l)
            new_dilation[l] =
                bwModel.dilation(total_demand[l] / machine_bw_cap);
        for (std::size_t i = 0; i < n; ++i) {
#pragma GCC unroll 4
            for (std::size_t l = 0; l < L; ++l) {
                const std::size_t x = i * L + l;
                const double next_scale = damp(
                    ws.mbaScale[x],
                    bwModel.throughputScale(ws.bwDemand[x], ws.capGibps[i]),
                    alpha);
                const double next_dilation =
                    damp(ws.dilation[x], new_dilation[l], alpha);
                const double raw = ws.cpiIdeal[x] /
                    dem[l][i].cpi.cpiWithMissTerm(ws.missTerm[x],
                                                  next_dilation) *
                    next_scale;
                const double next_speed = damp(ws.speed[x], raw, alpha);
                changed |= next_scale != ws.mbaScale[x] ||
                    next_dilation != ws.dilation[x] ||
                    next_speed != ws.speed[x] ||
                    ws.stretch[x] != ws.prevStretch[x];
                ws.mbaScale[x] = next_scale;
                ws.dilation[x] = next_dilation;
                ws.speed[x] = next_speed;
            }
        }
        if (!changed)
            break;
    }

    // ---- produce outcomes ---------------------------------------
    for (std::size_t l = 0; l < L; ++l)
        outs[lanes[l]].assign(n, PerfOutcome{});
    for (std::size_t x = 0; x < n * L; ++x) {
        const std::size_t i = x / L;
        const AppDemand &d = dem[x % L][i];
        PerfOutcome &o = outs[lanes[x % L]][i];
        o.effectiveWays = ws.ways[x];
        o.bwDilation = ws.dilation[x];
        o.speed = ws.speed[x];
        o.serviceStretch = ws.stretch[x];
        o.bwDemandGibps = ws.bwDemand[x];
        if (d.latencyCritical) {
            const double kappa =
                std::min(ws.threads[x], ws.isoLc[i] + ws.sharedGrant[x]);
            o.coreEquivalents = std::max(kappa, 1e-6);
            // Base per-core rate, requests/s.
            const double mu0 = 1000.0 * ws.speed[x] / d.serviceTimeMs;
            // Timeslicing stretches latency, not throughput: the
            // granted cores deliver their full service rate, and the
            // stretch is surfaced separately for the latency model.
            // Shared-region cores pay the context-switch/pollution
            // penalty; the app's own thread count bounds capacity.
            const double capacity = std::min(
                ws.threads[x] * mu0,
                (ws.isoLc[i] +
                 ws.sharedGrant[x] / traits_.sharedServicePenalty) * mu0);
            o.serviceRate = std::max(capacity, 1e-9);
            o.perServerRate = o.serviceRate / o.coreEquivalents;
            o.utilization = d.arrivalRate / o.serviceRate;
            o.ipc = 0.0;
        } else {
            o.coreEquivalents = ws.beCores[x];
            o.ipc = d.ipcSolo * ws.speed[x] *
                std::min(1.0, ws.beCores[x] / std::max(1.0, ws.threads[x]));
            o.serviceRate = 0.0;
            o.perServerRate = 0.0;
            o.utilization = 0.0;
        }
    }
}

} // namespace ahq::perf
