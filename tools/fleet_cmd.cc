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
#include <memory>
#include <stdexcept>

#include "cluster/cluster_sched.hh"
#include "exec/jobs.hh"
#include "fault/plan.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "obs/trace_sink.hh"
#include "report/table.hh"
#include "sched/registry.hh"
#include "trace/fleet_load.hh"

namespace ahq::cli
{

namespace
{

long long
fleetInt(const std::string &s, const std::string &flag,
         long long min_v)
{
    long long v = 0;
    try {
        std::size_t used = 0;
        v = std::stoll(s, &used);
        if (used != s.size())
            throw std::invalid_argument("trailing characters");
    } catch (const std::exception &) {
        throw std::invalid_argument("bad " + flag + ": '" + s +
                                    "' (expected an integer)");
    }
    if (v < min_v) {
        throw std::invalid_argument(
            flag + " must be >= " + std::to_string(min_v) +
            " (got " + s + ")");
    }
    return v;
}

double
fleetDouble(const std::string &s, const std::string &flag)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(s, &used);
        if (used != s.size())
            throw std::invalid_argument("trailing characters");
        if (!std::isfinite(v))
            throw std::invalid_argument("not finite");
        return v;
    } catch (const std::exception &) {
        throw std::invalid_argument(
            "bad " + flag + ": '" + s +
            "' (expected a finite number)");
    }
}

/** Fleet-only flags, peeled off before parseSimulateArgs. */
struct FleetFlags
{
    int nodes = 8;
    int lcPerNode = 2;
    int bePerNode = 1;
    int tenants = 64;
    double zipfSkew = 1.1;

    /** Rebalance round length in epochs; 0 = plain Fleet::run. */
    int rebalanceEvery = 0;

    double spreadThreshold = 0.10;

    /** Retain per-epoch records (costs O(nodes x epochs) memory). */
    bool keepEpochs = false;
};

} // namespace

int
runFleet(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    FleetFlags ff;
    // Fleet defaults are deliberately lighter than simulate's (a
    // fleet multiplies everything by N nodes); an explicit
    // --duration / --warmup later in the list overrides these.
    std::vector<std::string> rest{"--duration", "30", "--warmup",
                                  "10"};
    try {
        for (std::size_t i = 0; i < args.size(); ++i) {
            std::string a = args[i];
            std::string inline_value;
            bool has_inline = false;
            if (a.rfind("--", 0) == 0) {
                const auto eq = a.find('=');
                if (eq != std::string::npos) {
                    inline_value = a.substr(eq + 1);
                    a = a.substr(0, eq);
                    has_inline = true;
                }
            }
            auto next = [&](const char *flag) -> std::string {
                if (has_inline)
                    return inline_value;
                if (i + 1 >= args.size()) {
                    throw std::invalid_argument(
                        std::string(flag) + " needs a value");
                }
                return args[++i];
            };
            if (a == "--nodes") {
                ff.nodes = static_cast<int>(
                    fleetInt(next("--nodes"), "--nodes", 1));
            } else if (a == "--lc") {
                ff.lcPerNode = static_cast<int>(
                    fleetInt(next("--lc"), "--lc", 1));
            } else if (a == "--be") {
                ff.bePerNode = static_cast<int>(
                    fleetInt(next("--be"), "--be", 0));
            } else if (a == "--tenants") {
                ff.tenants = static_cast<int>(
                    fleetInt(next("--tenants"), "--tenants", 1));
            } else if (a == "--zipf") {
                ff.zipfSkew = fleetDouble(next("--zipf"), "--zipf");
                if (ff.zipfSkew < 0.0) {
                    throw std::invalid_argument(
                        "--zipf must be >= 0 (got " +
                        std::to_string(ff.zipfSkew) + ")");
                }
            } else if (a == "--rebalance-every") {
                ff.rebalanceEvery = static_cast<int>(
                    fleetInt(next("--rebalance-every"),
                             "--rebalance-every", 0));
            } else if (a == "--spread") {
                ff.spreadThreshold =
                    fleetDouble(next("--spread"), "--spread");
                if (ff.spreadThreshold < 0.0) {
                    throw std::invalid_argument(
                        "--spread must be >= 0 (got " +
                        std::to_string(ff.spreadThreshold) + ")");
                }
            } else if (a == "--keep-epochs") {
                if (has_inline) {
                    throw std::invalid_argument(
                        "--keep-epochs does not take a value");
                }
                ff.keepEpochs = true;
            } else {
                rest.push_back(args[i]);
            }
        }
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    SimulateOptions opt;
    try {
        opt = parseSimulateArgs(rest, /*require_apps=*/false);
        rejectProfileAndCsv(opt, "fleet");
        if (!opt.lcApps.empty() || !opt.beApps.empty()) {
            throw std::invalid_argument(
                "fleet synthesizes its workload from the global "
                "load generator; app specs are not accepted "
                "(shape it with --nodes/--lc/--be/--tenants)");
        }
        if (!opt.faultsPath.empty() && ff.rebalanceEvery > 0) {
            throw std::invalid_argument(
                "--faults cannot be combined with --rebalance-every "
                "(the cluster scheduler does not model node crashes)");
        }
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    try {
        if (opt.jobs > 0)
            exec::setDefaultJobs(opt.jobs);
        trace::FleetLoadConfig lc;
        lc.numNodes = ff.nodes;
        lc.lcPerNode = ff.lcPerNode;
        lc.bePerNode = ff.bePerNode;
        lc.numTenants = ff.tenants;
        lc.zipfSkew = ff.zipfSkew;
        lc.seed = opt.seed;
        const trace::FleetLoadGenerator gen(lc);

        const auto mc = machine::MachineConfig::xeonE52630v4()
                            .withAvailable(opt.cores, opt.ways,
                                           opt.bwUnits);

        cluster::SimulationConfig cfg;
        cfg.durationSeconds = opt.durationSeconds;
        cfg.warmupEpochs = opt.warmupEpochs;
        cfg.seed = opt.seed;
        cfg.tailPercentile = opt.percentile;
        cfg.ri = opt.ri;
        cfg.checkMode = opt.checkMode;
        cfg.traceSampleRate = opt.traceSampleRate;
        cfg.keepEpochs = ff.keepEpochs;
        cfg.attribute = opt.attribute;
        cfg.slo = opt.slo;

        // The plan must outlive the run: cfg holds a pointer.
        fault::FaultPlan plan;
        if (!opt.faultsPath.empty()) {
            plan = fault::FaultPlan::fromFile(opt.faultsPath);
            cfg.faults = &plan;
        }

        std::unique_ptr<obs::FileTraceSink> sink;
        obs::MetricsRegistry metrics;
        obs::TimeSeriesRegistry tseries;
        if (!opt.tracePath.empty()) {
            sink = std::make_unique<obs::FileTraceSink>(
                opt.tracePath);
            cfg.obs.sink = sink.get();
            cfg.obs.scenario = opt.strategy;
            cfg.obs.series = &tseries;
        }
        if (opt.dumpMetrics || sink)
            cfg.obs.metrics = &metrics;

        // Peak offered demand: every LC slot's tenant at its
        // daytime peak, in the app's own QPS units.
        double peak_qps = 0.0;
        for (int n = 0; n < ff.nodes; ++n) {
            const auto apps = cluster::fleetNodeApps(gen, n);
            for (int s = 0; s < ff.lcPerNode; ++s) {
                const auto rank = gen.tenant(n, s);
                peak_qps += gen.tenantPeakLoad(rank) *
                    apps[static_cast<std::size_t>(s)]
                        .profile.maxLoadQps;
            }
        }

        out << "fleet: " << ff.nodes << " nodes x ("
            << ff.lcPerNode << " LC + " << ff.bePerNode
            << " BE), " << ff.tenants << " tenants (zipf "
            << ff.zipfSkew << "), strategy " << opt.strategy
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
        if (ff.rebalanceEvery > 0) {
            cluster::ClusterConfig cc;
            cc.roundEpochs = ff.rebalanceEvery;
            cc.rounds =
                std::max(1, total_epochs / ff.rebalanceEvery);
            cc.roundWarmupEpochs = std::min(
                cfg.warmupEpochs, cc.roundEpochs - 1);
            cc.spreadThreshold = ff.spreadThreshold;
            cluster::ClusterScheduler cs(cc, opt.strategy);
            for (int n = 0; n < ff.nodes; ++n)
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
            for (int n = 0; n < ff.nodes; ++n) {
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
        if (ff.rebalanceEvery > 0)
            out << ", migrations = " << migrations;
        out << "\n";
        out << "wall " << report::TextTable::num(wall_s, 2)
            << " s, "
            << report::TextTable::num(
                   wall_s > 0.0 ? ff.nodes / wall_s : 0.0, 1)
            << " nodes/s\n";

        if (sink) {
            tseries.flush(cfg.obs);
            sink->flush();
            out << "trace written to " << sink->path() << "\n";
        }
        if (opt.dumpMetrics)
            metrics.print(out);
        return 0;
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

} // namespace ahq::cli
