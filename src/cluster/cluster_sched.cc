/**
 * @file
 * Cluster scheduler implementation.
 */

#include "cluster/cluster_sched.hh"

#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "apps/catalog.hh"
#include "exec/fan_out.hh"
#include "exec/jobs.hh"
#include "exec/parallel.hh"
#include "sched/registry.hh"

namespace ahq::cluster
{

namespace
{

/** Seed salt decorrelating the RNG streams of rebalance rounds. */
constexpr std::uint64_t kRoundSeedSalt = 0xc1a5;

/** Migration budget per inter-round rebalance. */
constexpr int kMaxMigrationsPerRound = 1;

/**
 * Hysteresis margin: apply a candidate migration only when the
 * trial-projected spread improves by at least this much. Two
 * near-equal nodes otherwise ping-pong an app between them every
 * rebalance (the trial noise alone flips which node looks hotter).
 */
constexpr double kMigrationEpsilon = 0.01;

/**
 * Per-app cooldown: an app migrated after round r is not eligible to
 * migrate again before round r + kMigrationCooldownRounds. Breaks
 * the remaining oscillation mode (A→B this round, B→A the next)
 * that a spread margin alone cannot, because the spread genuinely
 * alternates sign.
 */
constexpr int kMigrationCooldownRounds = 2;

/**
 * Cold-start window charged to every migration: the moved app runs
 * its first kMigrationCostEpochs epochs on the new node with service
 * degraded by kMigrationPenalty (decaying linearly), in both the
 * destination trial and the next live round — a real migration
 * drains the app and re-warms caches, so a move is never free.
 */
constexpr int kMigrationCostEpochs = 4;

/** Peak fractional service degradation of the cold window. */
constexpr double kMigrationPenalty = 0.25;

} // namespace

ClusterScheduler::ClusterScheduler(ClusterConfig config,
                                   std::string strategy)
    : cfg(config), strategy_(std::move(strategy))
{
    assert(cfg.rounds >= 1);
    assert(cfg.roundEpochs > cfg.roundWarmupEpochs);
}

void
ClusterScheduler::addNode(machine::MachineConfig config,
                          std::vector<ColocatedApp> apps)
{
    configs_.push_back(std::move(config));
    apps_.push_back(std::move(apps));
}

ClusterResult
ClusterScheduler::run(const SimulationConfig &base,
                      exec::ThreadPool *pool)
{
    assert(numNodes() > 0);
    ClusterResult out;
    const obs::Scope &scope = base.obs;
    const bool tracing = scope.tracing();
    exec::ThreadPool &p = pool ? *pool : exec::globalPool();
    const std::size_t nn = configs_.size();
    constexpr double kInf = std::numeric_limits<double>::infinity();

    if (tracing) {
        obs::Event ev("cluster_start");
        ev.integer("nodes", numNodes())
            .integer("rounds", cfg.rounds)
            .num("spread_threshold", cfg.spreadThreshold)
            .integer("seed", static_cast<long long>(base.seed));
        scope.emit(ev);
    }

    // Short, unaudited, untraced trial runs drive every migration
    // decision; one fixed seed keeps candidates comparable and the
    // whole search deterministic per (nodes, config, seed).
    const SimulationConfig trial = trialConfig(
        base, ClusterConfig::trialSeconds, ClusterConfig::trialWarmupEpochs);

    const std::function<std::unique_ptr<sched::Scheduler>()>
        make_scheduler = [this] { return sched::makeScheduler(strategy_); };

    // Per-node mean E_S estimate: measured each round, patched
    // from trial values between migrations within a rebalance.
    std::vector<double> node_mean(nn, 0.0);
    auto spread_of = [&] {
        double lo = kInf, hi = -kInf;
        for (std::size_t n = 0; n < nn; ++n) {
            if (apps_[n].empty())
                continue;
            lo = std::min(lo, node_mean[n]);
            hi = std::max(hi, node_mean[n]);
        }
        return hi >= lo ? hi - lo : 0.0;
    };

    // Round after which each app instance last migrated, parallel
    // to apps_ (slot-for-slot), driving the per-app cooldown. The
    // sentinel keeps round 0 eligible for any cooldown length.
    constexpr int kNeverMoved = -(1 << 20);
    std::vector<std::vector<int>> last_moved(nn);
    for (std::size_t n = 0; n < nn; ++n)
        last_moved[n].assign(apps_[n].size(), kNeverMoved);

    FleetAccumulator pooled;
    for (int r = 0; r < cfg.rounds; ++r) {
        // ---- measurement round: every node in parallel ----------
        std::vector<SimulationResult> results(nn);
        std::vector<FleetAccumulator> accums(nn);
        exec::NodeFanOut fan(scope);
        fan.run(
            p, nn,
            [&](std::size_t n) {
                return "round" + std::to_string(r) + "/node" +
                    std::to_string(n);
            },
            [&](std::size_t first, std::span<const obs::Scope> scopes) {
                const std::size_t count = scopes.size();
                std::vector<EpochSimulator> sims;
                std::vector<std::unique_ptr<sched::Scheduler>> scheds;
                std::vector<sched::Scheduler *> arms;
                std::vector<GroupRun> group;
                sims.reserve(count);
                arms.reserve(count);
                for (std::size_t k = 0; k < count; ++k) {
                    const std::size_t n = first + k;
                    SimulationConfig per_node = base;
                    per_node.durationSeconds =
                        cfg.roundEpochs * base.epochSeconds;
                    per_node.warmupEpochs = cfg.roundWarmupEpochs;
                    per_node.keepEpochs = false;
                    per_node.seed = exec::nodeSeed(
                        base.seed, n,
                        kRoundSeedSalt * static_cast<std::uint64_t>(r + 1));
                    per_node.obs = scopes[k];
                    sims.emplace_back(Node(configs_[n], apps_[n]),
                                      per_node);
                    scheds.push_back(sched::makeScheduler(strategy_));
                    arms.push_back(scheds.back().get());
                    group.push_back(
                        {&sims[k], {&arms[k], 1}, nullptr, &results[n]});
                }
                EpochSimulator::runGroup(group);
                for (std::size_t k = 0; k < count; ++k)
                    accums[first + k].add(sims[k].node(), results[first + k]);
            });
        fan.flushAll();
        // Cold windows are consumed by the round that just ran
        // (roundEpochs >= the window): every app is warm again
        // until the next migration marks one cold.
        for (auto &node_apps : apps_) {
            for (auto &app : node_apps) {
                app.coldEpochs = 0;
                app.coldPenalty = 0.0;
            }
        }

        FleetAccumulator round_pool;
        for (const auto &acc : accums)
            round_pool.merge(acc);
        const auto rep = round_pool.entropy(base.ri);
        for (std::size_t n = 0; n < nn; ++n)
            node_mean[n] = results[n].meanES;
        const double spread = spread_of();
        out.roundES.push_back(rep.eS);
        out.roundSpread.push_back(spread);
        out.violations += round_pool.violations;
        pooled.merge(round_pool);
        // (round, node)-ordered merges keep the pooled ledger bits
        // independent of which worker ran which node.
        for (std::size_t n = 0; n < nn; ++n) {
            out.attribution.merge(results[n].attribution);
            out.slo.merge(results[n].slo);
        }
        scope.count("cluster.rounds");
        if (tracing) {
            obs::Event ev("cluster_round");
            ev.integer("round", r)
                .num("e_lc", rep.eLc)
                .num("e_be", rep.eBe)
                .num("e_s", rep.eS)
                .num("spread", spread)
                .integer("violations", round_pool.violations);
            scope.emit(ev);
        }

        // ---- rebalance: migrate off the hottest node ------------
        if (r == cfg.rounds - 1)
            break;
        int done = 0;
        while (spread_of() > cfg.spreadThreshold &&
               done < kMaxMigrationsPerRound) {
            // Hottest node that can give an app up (>= 2 apps, so
            // a migration rebalances instead of just relocating a
            // whole node's workload).
            int hot = -1;
            double hot_es = -kInf;
            for (std::size_t n = 0; n < nn; ++n) {
                if (apps_[n].size() >= 2 && node_mean[n] > hot_es) {
                    hot_es = node_mean[n];
                    hot = static_cast<int>(n);
                }
            }
            if (hot < 0)
                break;
            const auto uh = static_cast<std::size_t>(hot);

            // Victim: the app whose removal lowers the hot node's
            // entropy the most (argmin residual E_S, app order),
            // skipping apps still in their migration cooldown —
            // an app bounced last rebalance must settle before it
            // may move again.
            std::vector<double> residual(apps_[uh].size(), kInf);
            exec::parallelFor(
                p, apps_[uh].size(), [&](std::size_t i) {
                    if (r - last_moved[uh][i] < kMigrationCooldownRounds)
                        return;
                    auto rest = apps_[uh];
                    rest.erase(rest.begin() +
                               static_cast<std::ptrdiff_t>(i));
                    residual[i] = trialEntropy(configs_[uh], rest, trial,
                                               make_scheduler);
                });
            std::size_t victim = 0;
            double victim_es = kInf;
            for (std::size_t i = 0; i < residual.size(); ++i) {
                if (residual[i] < victim_es) {
                    victim_es = residual[i];
                    victim = i;
                }
            }
            if (!std::isfinite(victim_es))
                break; // every app on the hot node is cooling down

            // Destination: where the victim disturbs least. The
            // trial colocation charges the migration cost — the
            // candidate arrives cold — so a move that only pays
            // off ignoring its own disruption is not taken.
            std::vector<double> dest_es(nn, kInf);
            exec::parallelFor(p, nn, [&](std::size_t d) {
                if (d == uh)
                    return;
                auto set = apps_[d];
                set.push_back(apps_[uh][victim]);
                set.back().coldEpochs = kMigrationCostEpochs;
                set.back().coldPenalty = kMigrationPenalty;
                dest_es[d] =
                    trialEntropy(configs_[d], set, trial, make_scheduler);
            });
            int dest = -1;
            double best = kInf;
            for (std::size_t d = 0; d < nn; ++d) {
                if (d != uh && dest_es[d] < best) {
                    best = dest_es[d];
                    dest = static_cast<int>(d);
                }
            }
            if (dest < 0)
                break;
            const auto ud = static_cast<std::size_t>(dest);

            // Hysteresis: apply only if the trial-projected spread
            // improves by at least kMigrationEpsilon. Without it,
            // two near-equal nodes trade the same app forever on
            // trial noise alone.
            const double spread_now = spread_of();
            const double mean_h = node_mean[uh];
            const double mean_d = node_mean[ud];
            node_mean[uh] = victim_es;
            node_mean[ud] = dest_es[ud];
            const double spread_next = spread_of();
            if (spread_now - spread_next < kMigrationEpsilon) {
                node_mean[uh] = mean_h;
                node_mean[ud] = mean_d;
                break; // best available move is not worth taking
            }

            ColocatedApp moved = apps_[uh][victim];
            moved.coldEpochs = kMigrationCostEpochs;
            moved.coldPenalty = kMigrationPenalty;
            apps_[uh].erase(apps_[uh].begin() +
                            static_cast<std::ptrdiff_t>(victim));
            last_moved[uh].erase(
                last_moved[uh].begin() +
                static_cast<std::ptrdiff_t>(victim));
            apps_[ud].push_back(std::move(moved));
            last_moved[ud].push_back(r);
            out.migrations.push_back(
                {r, hot, dest, apps_[ud].back().profile.name});
            scope.count("cluster.migrations");
            scope.count("cluster.migration_cost_epochs",
                        kMigrationCostEpochs);
            if (tracing) {
                obs::Event ev("cluster_migrate");
                ev.integer("round", r)
                    .str("app", apps_[ud].back().profile.name)
                    .integer("from", hot)
                    .integer("to", dest)
                    .integer("cost_epochs", kMigrationCostEpochs);
                // With attribution on, the migration cites who was
                // hurting the moved app on the node it is leaving
                // ("" for BE apps — the ledger only has LC victims).
                if (base.attribute)
                    ev.str("blame",
                           results[uh].attribution.topBlame(
                               apps_[ud].back().profile.name));
                scope.emit(ev);
            }
            ++done;
        }
    }

    const auto rep = pooled.entropy(base.ri);
    out.eLc = rep.eLc;
    out.eBe = rep.eBe;
    out.eS = rep.eS;
    out.yieldValue = rep.yieldValue;
    out.finalNodeES = node_mean;
    for (std::size_t n = 0; n < nn; ++n)
        out.finalAppsPerNode.push_back(
            static_cast<int>(apps_[n].size()));

    if (tracing) {
        obs::Event ev("cluster_end");
        ev.num("e_lc", out.eLc)
            .num("e_be", out.eBe)
            .num("e_s", out.eS)
            .num("yield", out.yieldValue)
            .integer("violations", out.violations)
            .integer("migrations",
                     static_cast<long long>(out.migrations.size()));
        scope.emit(ev);
    }
    scope.count("cluster.runs");
    return out;
}

std::vector<ColocatedApp>
fleetNodeApps(const trace::FleetLoadGenerator &gen, int node)
{
    const auto &fc = gen.config();
    using Maker = apps::AppProfile (*)();
    // Tenant rank picks the LC profile, so every replica of a
    // tenant runs the same application; BE fillers just cycle.
    static constexpr Maker kLc[] = {apps::xapian,   apps::moses,
                                    apps::imgDnn,   apps::sphinx,
                                    apps::masstree, apps::silo};
    static constexpr Maker kBe[] = {apps::stream, apps::fluidanimate,
                                    apps::streamcluster};
    std::vector<ColocatedApp> out;
    out.reserve(static_cast<std::size_t>(fc.lcPerNode) +
                static_cast<std::size_t>(fc.bePerNode));
    for (int s = 0; s < fc.lcPerNode; ++s) {
        const std::uint64_t rank = gen.tenant(node, s);
        auto prof = kLc[(rank - 1) % std::size(kLc)]();
        prof.name += "#t" + std::to_string(rank);
        out.push_back(
            lcWith(std::move(prof), gen.tenantTrace(rank)));
    }
    for (int s = 0; s < fc.bePerNode; ++s) {
        out.push_back(be(kBe[static_cast<std::size_t>(node + s) %
                            std::size(kBe)]()));
    }
    return out;
}

} // namespace ahq::cluster
