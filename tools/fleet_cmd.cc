/**
 * @file
 * `ahq fleet`: simulate a datacenter-scale fleet under the global
 * load generator — N nodes x M tenants with diurnal curves, Zipf
 * tenant skew and flash crowds — through the streaming fleet
 * aggregation, optionally with the entropy-driven cluster scheduler
 * rebalancing between rounds.
 */

#include "cli.hh"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "cluster/cluster_sched.hh"
#include "report/table.hh"
#include "sched/registry.hh"
#include "trace/fleet_load.hh"

namespace ahq::cli
{

int
runFleet(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    // Fleet defaults are deliberately lighter than simulate's (a
    // fleet multiplies everything by N nodes).
    SimulateOptions opt;
    opt.durationSeconds = 30.0;
    opt.warmupEpochs = 10;
    trace::FleetLoadConfig load;
    load.numNodes = 8;
    int rebalance_every = 0; // 0 = one plain Fleet::run
    double spread_threshold = 0.10;
    try {
        Flags flags("fleet");
        addWorkloadShape(flags, load);
        flags
            .value("--rebalance-every",
                   [&](const std::string &v) {
                       rebalance_every =
                           parseCount(v, "--rebalance-every", 0);
                   })
            .value("--spread", [&](const std::string &v) {
                spread_threshold = parseNumber(v, "--spread");
                if (spread_threshold < 0.0) {
                    throw std::invalid_argument(
                        "--spread must be >= 0 (got " + v + ")");
                }
            });
        if (!parseRunFlags(flags, opt, args).empty()) {
            throw std::invalid_argument(
                "fleet synthesizes its workload from the global "
                "load generator; app specs are not accepted "
                "(shape it with --nodes/--lc/--be/--tenants)");
        }
        if (!opt.faultsPath.empty() && rebalance_every > 0) {
            throw std::invalid_argument(
                "--faults cannot be combined with --rebalance-every "
                "(the cluster scheduler does not model node crashes)");
        }
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    try {
        load.seed = opt.seed;
        const trace::FleetLoadGenerator gen(load);
        RunContext ctx(opt, opt.strategy);
        const auto mc = ctx.machine();
        // Per-epoch records would cost O(nodes x epochs) memory and
        // nothing here reads them.
        cluster::SimulationConfig &cfg = ctx.config;
        cfg.keepEpochs = false;

        // Peak offered demand: every LC slot's tenant at its
        // daytime peak, in the app's own QPS units.
        double peak_qps = 0.0;
        for (int n = 0; n < load.numNodes; ++n) {
            const auto apps = cluster::fleetNodeApps(gen, n);
            for (int s = 0; s < load.lcPerNode; ++s) {
                const auto rank = gen.tenant(n, s);
                peak_qps += gen.tenantPeakLoad(rank) *
                    apps[static_cast<std::size_t>(s)]
                        .profile.maxLoadQps;
            }
        }

        out << "fleet: " << load.numNodes << " nodes x ("
            << load.lcPerNode << " LC + " << load.bePerNode
            << " BE), " << load.numTenants << " tenants (zipf "
            << load.zipfSkew << "), strategy " << opt.strategy
            << "\n";
        out << "peak demand ~ "
            << static_cast<long long>(std::llround(peak_qps))
            << " QPS (~"
            << static_cast<long long>(
                   std::llround(peak_qps * 60.0))
            << " users at 1 req/user/min)\n";

        const int total_epochs = static_cast<int>(std::round(
            cfg.durationSeconds / cfg.epochSeconds));
        const auto t0 = std::chrono::steady_clock::now();

        double e_lc = 0.0, e_be = 0.0, e_s = 0.0, yield = 1.0;
        long long violations = 0, migrations = 0;
        obs::AttributionLedger blame;
        obs::SloSummary slo_totals;
        if (rebalance_every > 0) {
            cluster::ClusterConfig cc;
            cc.roundEpochs = rebalance_every;
            cc.rounds =
                std::max(1, total_epochs / rebalance_every);
            cc.roundWarmupEpochs = std::min(
                cfg.warmupEpochs, cc.roundEpochs - 1);
            cc.spreadThreshold = spread_threshold;
            cluster::ClusterScheduler cs(cc, opt.strategy);
            for (int n = 0; n < load.numNodes; ++n)
                cs.addNode(mc, cluster::fleetNodeApps(gen, n));
            const auto res = cs.run(cfg);
            report::TextTable t(
                {"round", "E_S", "spread", "migrations"});
            for (std::size_t r = 0; r < res.roundES.size(); ++r) {
                long long moved = 0;
                for (const auto &m : res.migrations) {
                    if (m.round == static_cast<int>(r))
                        ++moved;
                }
                t.addRow({std::to_string(r),
                          report::TextTable::num(res.roundES[r]),
                          report::TextTable::num(
                              res.roundSpread[r]),
                          std::to_string(moved)});
            }
            t.print(out);
            for (const auto &m : res.migrations) {
                out << "migrated " << m.app << ": node"
                    << m.fromNode << " -> node" << m.toNode
                    << " (round " << m.round << ")\n";
            }
            e_lc = res.eLc;
            e_be = res.eBe;
            e_s = res.eS;
            yield = res.yieldValue;
            violations = res.violations;
            migrations =
                static_cast<long long>(res.migrations.size());
            blame = res.attribution;
            slo_totals = res.slo;
        } else {
            cluster::Fleet fleet;
            for (int n = 0; n < load.numNodes; ++n) {
                fleet.addNode(
                    cluster::Node(mc,
                                  cluster::fleetNodeApps(gen, n)),
                    sched::makeScheduler(opt.strategy));
            }
            const auto res = fleet.run(cfg);
            if (!res.crashedNodes.empty()) {
                out << "crashed:";
                for (const int n : res.crashedNodes)
                    out << " node" << n;
                out << " (failovers = " << res.failovers << ")\n";
            }
            e_lc = res.eLc;
            e_be = res.eBe;
            e_s = res.eS;
            yield = res.yieldValue;
            violations = res.violations;
            blame = res.attribution;
            slo_totals = res.slo;
        }

        if (opt.attribute && !blame.empty()) {
            out << "fleet blame ledger (top 12 by attributed "
                   "interference):\n";
            printBlameTable(out, blame, 12);
        }
        if (opt.slo)
            printSloSummary(out, slo_totals);

        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        out << "E_LC = " << e_lc << ", E_BE = " << e_be
            << ", E_S = " << e_s << ", yield = " << yield
            << ", violations = " << violations;
        if (rebalance_every > 0)
            out << ", migrations = " << migrations;
        out << "\n";
        out << "wall " << report::TextTable::num(wall_s, 2)
            << " s, "
            << report::TextTable::num(
                   wall_s > 0.0 ? load.numNodes / wall_s : 0.0, 1)
            << " nodes/s\n";

        ctx.finish(out, "profile (span tree, all nodes merged):");
        return 0;
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

} // namespace ahq::cli
