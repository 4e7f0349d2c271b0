/**
 * @file
 * Parallel-scaling tracker (not a paper figure): times the two
 * engine-bound workloads — a ScenarioRunner batch and the hybrid
 * oracle search — at 1/2/4/8 threads, checks that every parallel
 * result is identical to the serial one, and writes
 * bench_out/parallel_scaling.csv so future PRs can track the
 * speedup trajectory as the engine evolves.
 */

#include <iostream>
#include <thread>

#include "cluster/oracle.hh"
#include "common.hh"
#include "exec/scenario_runner.hh"
#include "exec/thread_pool.hh"

using namespace ahq;
using namespace ahq::bench;

namespace
{

std::vector<exec::ScenarioJob>
scenarioBatch()
{
    std::vector<exec::ScenarioJob> jobs;
    std::uint64_t seed = 1;
    cluster::SimulationConfig cfg = standardConfig();
    cfg.durationSeconds = 30.0;
    cfg.warmupEpochs = 20;
    for (const auto &s : allStrategies()) {
        for (double load : {0.3, 0.6, 0.9}) {
            cfg.seed = seed++;
            jobs.push_back({s,
                            canonicalNode(load, 0.2, 0.2,
                                          apps::stream()),
                            cfg, ""});
        }
    }
    return jobs;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchJsonWriter json(
        parseBenchArgs(argc, argv, "parallel_scaling"));

    report::heading(std::cout,
                    "Parallel scaling — ScenarioRunner batch and "
                    "oracle search vs thread count");

    const auto jobs = scenarioBatch();
    const auto node = canonicalNode(0.5, 0.2, 0.2, apps::stream());
    cluster::OracleConfig ocfg;
    ocfg.wayStep = 4;

    // Serial reference results for the determinism check.
    exec::ThreadPool ref_pool(1);
    ocfg.pool = &ref_pool;
    const auto ref_batch = exec::ScenarioRunner(&ref_pool).run(jobs);
    const auto ref_oracle = cluster::bestHybridPartition(node, ocfg);

    const unsigned hw = std::thread::hardware_concurrency();
    report::TextTable t({"threads", "batch (s)", "batch speedup",
                         "oracle (s)", "oracle speedup",
                         "identical"});
    auto csv = openCsv("parallel_scaling.csv",
                       {"threads", "hardware_threads",
                        "scenario_batch_s", "scenario_speedup",
                        "oracle_search_s", "oracle_speedup",
                        "bitwise_identical"});

    double batch_t1 = 0.0;
    double oracle_t1 = 0.0;
    for (int threads : {1, 2, 4, 8}) {
        exec::ThreadPool pool(threads);
        exec::ScenarioRunner runner(&pool);
        cluster::OracleConfig cfg = ocfg;
        cfg.pool = &pool;

        const std::string cfg_tag = "threads=" +
            std::to_string(threads) + " hw=" + std::to_string(hw);
        std::vector<cluster::SimulationResult> batch_res;
        cluster::OracleResult oracle_res;
        const std::vector<double> best = timeRows(
            {{"batch@" + std::to_string(threads) + "t",
              static_cast<double>(jobs.size()), "scenarios/s", cfg_tag,
              [&] { batch_res = runner.run(jobs); }},
             {"oracle@" + std::to_string(threads) + "t", 1.0,
              "searches/s", cfg_tag,
              [&] { oracle_res = cluster::bestHybridPartition(node, cfg); }}},
            json);
        const double batch_s = best[0];
        const double oracle_s = best[1];

        bool identical =
            oracle_res.evaluated == ref_oracle.evaluated &&
            oracle_res.report.eS == ref_oracle.report.eS &&
            oracle_res.layout.toString() ==
                ref_oracle.layout.toString() &&
            batch_res.size() == ref_batch.size();
        for (std::size_t i = 0;
             identical && i < batch_res.size(); ++i) {
            identical = batch_res[i].meanES == ref_batch[i].meanES &&
                        batch_res[i].violations ==
                            ref_batch[i].violations;
        }

        if (threads == 1) {
            batch_t1 = batch_s;
            oracle_t1 = oracle_s;
        }
        const double batch_sp = batch_t1 / batch_s;
        const double oracle_sp = oracle_t1 / oracle_s;
        t.addRow({std::to_string(threads), num(batch_s, 3),
                  num(batch_sp, 2), num(oracle_s, 3),
                  num(oracle_sp, 2), identical ? "yes" : "NO"});
        csv->addRow({std::to_string(threads), std::to_string(hw),
                     num(batch_s, 4), num(batch_sp, 3),
                     num(oracle_s, 4), num(oracle_sp, 3),
                     identical ? "1" : "0"});
        if (!identical) {
            std::cerr << "determinism violation at " << threads
                      << " threads\n";
            return 1;
        }
    }
    t.print(std::cout);

    std::cout << "\nReading: speedups are relative to 1 thread on "
                 "this machine ("
              << hw
              << " hardware threads); oversubscribed rows above "
                 "the hardware count are expected to flatten. "
                 "'identical' asserts the bitwise serial==parallel "
                 "determinism contract.\n";
    return 0;
}
