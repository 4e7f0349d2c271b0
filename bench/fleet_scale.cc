/**
 * @file
 * Datacenter-scale fleet anchor: streaming-aggregation Fleet runs at
 * 1k and 10k nodes under the global load generator (nodes/s and
 * epochs/s), a determinism cross-check (pooled E_S bitwise identical
 * at 1/4/16 worker threads), and a 64-node ClusterScheduler round
 * trip. The 10k row is the ROADMAP item-1 shape: keepEpochs=false,
 * so resident memory is O(nodes), verified structurally (no row may
 * retain an epoch vector) and reported as peak RSS. With --json it
 * writes BENCH_fleet_scale.json, committed as the perf baseline for
 * the `ctest -L perf` gate.
 */

#include <sys/resource.h>

#include <cstring>
#include <iostream>

#include "common.hh"
#include "cluster/cluster_sched.hh"
#include "exec/thread_pool.hh"
#include "sched/registry.hh"
#include "trace/fleet_load.hh"

using namespace ahq;
using namespace ahq::bench;

namespace
{

/** Peak resident set size in MiB (Linux ru_maxrss is KiB). */
double
peakRssMiB()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

cluster::SimulationConfig
fleetConfig()
{
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 10.0; // 20 epochs of 500 ms
    cfg.warmupEpochs = 5;
    cfg.keepEpochs = false;
    return cfg;
}

cluster::Fleet
buildFleet(const trace::FleetLoadGenerator &gen, int nodes)
{
    const auto mc = machine::MachineConfig::xeonE52630v4();
    cluster::Fleet fleet;
    for (int n = 0; n < nodes; ++n) {
        fleet.addNode(
            cluster::Node(mc, cluster::fleetNodeApps(gen, n)),
            sched::makeScheduler("ARQ"));
    }
    return fleet;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchJsonWriter json(parseBenchArgs(argc, argv, "fleet_scale"));

    report::heading(std::cout,
                    "Fleet scale: streaming aggregation under the "
                    "global load generator (ARQ, 20 epochs/node)");

    const cluster::SimulationConfig cfg = fleetConfig();
    const double epochs_per_node =
        cfg.durationSeconds / cfg.epochSeconds;

    report::TextTable t({"workload", "wall (ms)", "nodes/s",
                         "epochs/s", "E_S"});

    // ---- determinism: pooled E_S bitwise identical at any ------
    // thread count (the acceptance gate for the streaming path).
    {
        trace::FleetLoadConfig lc;
        lc.numNodes = 256;
        const trace::FleetLoadGenerator gen(lc);
        double ref_es = 0.0;
        bool first = true;
        for (int threads : {1, 4, 16}) {
            exec::ThreadPool pool(threads);
            auto fleet = buildFleet(gen, lc.numNodes);
            const auto r = fleet.run(cfg, &pool);
            if (first) {
                ref_es = r.eS;
                first = false;
            } else if (std::memcmp(&ref_es, &r.eS,
                                   sizeof(double)) != 0) {
                std::cerr << "FAIL: pooled E_S not bitwise "
                             "identical at "
                          << threads << " threads\n";
                return 1;
            }
        }
        std::cout << "determinism: 256-node pooled E_S bitwise "
                     "identical at 1/4/16 threads\n";
    }

    // ---- scale rows: 1k and 10k nodes --------------------------
    // One row per sampler call: in rounds with faster rows the 10k
    // run would repeat every round.
    for (const int nodes : {1000, 10000}) {
        trace::FleetLoadConfig lc;
        lc.numNodes = nodes;
        lc.numTenants = 1024;
        const trace::FleetLoadGenerator gen(lc);
        const std::string name =
            "fleet_run_" + std::to_string(nodes / 1000) + "k";
        double es = 0.0;
        const double s = timeRows(
            {{name, static_cast<double>(nodes), "nodes/s",
              "epochs=20 tenants=1024 ARQ nodes=" +
                  std::to_string(nodes),
              [&] {
                  auto fleet = buildFleet(gen, nodes);
                  const auto r = fleet.run(cfg);
                  es = r.eS;
                  // O(nodes) memory is structural: no slot may
                  // retain its per-epoch records.
                  for (const auto &res : r.nodes) {
                      if (!res.epochs.empty()) {
                          std::cerr << "FAIL: epochs retained with "
                                       "keepEpochs=false\n";
                          std::exit(1);
                      }
                  }
              }}},
            json)[0];
        t.addRow({name, num(s * 1e3), num(nodes / s, 0),
                  num(nodes * epochs_per_node / s, 0), num(es)});
        if (nodes / s < 1000.0) {
            std::cout << "WARNING: " << name << " below the 1k "
                      << "nodes/s acceptance floor\n";
        }
    }
    std::cout << "peak RSS after 10k-node run: "
              << num(peakRssMiB(), 1) << " MiB\n";

    // ---- cluster control plane: 64 nodes, 3 rounds -------------
    {
        trace::FleetLoadConfig lc;
        lc.numNodes = 64;
        const trace::FleetLoadGenerator gen(lc);
        const auto mc = machine::MachineConfig::xeonE52630v4();
        double es = 0.0;
        const double total_epochs =
            3.0 * 20.0 * lc.numNodes; // rounds x epochs x nodes
        const double s = timeRows(
            {{"cluster_sched_64", total_epochs, "epochs/s",
              "rounds=3 epochs=20 ARQ nodes=64", [&] {
                  cluster::ClusterConfig cc;
                  cluster::ClusterScheduler cs(cc, "ARQ");
                  for (int n = 0; n < lc.numNodes; ++n)
                      cs.addNode(mc, cluster::fleetNodeApps(gen, n));
                  es = cs.run(cfg).eS;
              }}},
            json)[0];
        t.addRow({"cluster_sched_64", num(s * 1e3),
                  num(lc.numNodes / s, 0), num(total_epochs / s, 0),
                  num(es)});
    }

    t.print(std::cout);
    return 0;
}
