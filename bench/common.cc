/**
 * @file
 * Bench plumbing implementation.
 */

#include "common.hh"

#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "cluster/cluster_sched.hh"
#include "exec/jobs.hh"
#include "obs/json.hh"
#include "sched/registry.hh"
#include "trace/fleet_load.hh"

namespace ahq::bench
{

std::string
outputDir()
{
    // Magic-static init makes the mkdir race-free when pool
    // threads hit the first call concurrently.
    static const std::string dir = [] {
        const char *env = std::getenv("AHQ_BENCH_OUT");
        std::string d =
            env != nullptr && *env != '\0' ? env : "bench_out";
        ::mkdir(d.c_str(), 0755); // best effort; may already exist
        return d;
    }();
    return dir;
}

std::unique_ptr<report::CsvWriter>
openCsv(const std::string &filename,
        const std::vector<std::string> &header)
{
    return std::make_unique<report::CsvWriter>(
        outputDir() + "/" + filename, header);
}

obs::Scope
benchScope()
{
    // Magic static: the sink and registry are process-wide and live
    // until exit, so pool workers can hold copies of this scope.
    static const obs::Scope scope = [] {
        obs::Scope s;
        const char *trace = std::getenv("AHQ_TRACE");
        if (trace != nullptr && *trace != '\0') {
            static obs::FileTraceSink sink{std::string(trace)};
            s.sink = &sink;
        }
        const char *metrics = std::getenv("AHQ_METRICS");
        if (metrics != nullptr && *metrics != '\0') {
            s.metrics = &obs::globalMetrics();
            std::atexit(
                [] { obs::globalMetrics().print(std::cerr); });
        }
        return s;
    }();
    return scope;
}

const std::vector<std::string> &
allStrategies()
{
    static const std::vector<std::string> v{
        "Unmanaged", "LC-first", "PARTIES", "CLITE", "ARQ"};
    return v;
}

cluster::SimulationConfig
standardConfig()
{
    cluster::SimulationConfig c;
    c.epochSeconds = 0.5;
    c.durationSeconds = 120.0;
    c.warmupEpochs = 120;
    c.seed = 42;
    return c;
}

cluster::SimulationConfig
hotConfig()
{
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 1800.0; // 3600 epochs of 500 ms
    cfg.warmupEpochs = 5;
    cfg.keepEpochs = false;
    return cfg;
}

cluster::Node
hotNode()
{
    trace::FleetLoadConfig lc;
    lc.numNodes = 4;
    const trace::FleetLoadGenerator gen(lc);
    return cluster::Node(machine::MachineConfig::xeonE52630v4(),
                         cluster::fleetNodeApps(gen, 0));
}

cluster::SimulationResult
runScenario(const std::string &strategy, const cluster::Node &node,
            const cluster::SimulationConfig &cfg)
{
    const auto sched = sched::makeScheduler(strategy);
    cluster::EpochSimulator sim(node, cfg);
    return sim.run(*sched);
}

std::vector<cluster::SimulationResult>
runScenarios(const std::vector<exec::ScenarioJob> &jobs)
{
    exec::ScenarioRunner runner(&exec::globalPool());
    runner.setObsScope(benchScope());
    return runner.run(jobs);
}

cluster::Node
canonicalNode(double xapian_load, double moses_load,
              double imgdnn_load, const apps::AppProfile &be_app,
              const machine::MachineConfig &mc)
{
    return cluster::Node(
        mc, {cluster::lcAt(apps::xapian(), xapian_load),
             cluster::lcAt(apps::moses(), moses_load),
             cluster::lcAt(apps::imgDnn(), imgdnn_load),
             cluster::be(be_app)});
}

core::EntropyCurve
entropyVsCores(const std::string &strategy,
               const std::vector<int> &core_counts, int ways,
               const apps::AppProfile &be_app, double xapian_load)
{
    std::vector<exec::ScenarioJob> jobs;
    for (int cores : core_counts) {
        const auto mc = machine::MachineConfig::xeonE52630v4()
                            .withAvailable(cores, ways, 10);
        jobs.push_back({strategy,
                        canonicalNode(xapian_load, 0.2, 0.2,
                                      be_app, mc),
                        standardConfig(),
                        strategy + "@" + std::to_string(cores) +
                            "c"});
    }
    const auto results = bench::runScenarios(jobs);
    core::EntropyCurve curve;
    for (std::size_t i = 0; i < results.size(); ++i) {
        curve.push_back({static_cast<double>(core_counts[i]),
                         results[i].meanES});
    }
    return curve;
}

std::string
num(double v, int precision)
{
    return report::TextTable::num(v, precision);
}

std::string
gitRev()
{
#ifdef AHQ_GIT_REV
    return AHQ_GIT_REV;
#else
    return "unknown";
#endif
}

std::string
machineFingerprint()
{
    static const std::string fingerprint = [] {
        std::string cpu = "unknown";
        std::ifstream in("/proc/cpuinfo");
        for (std::string line; std::getline(in, line);) {
            const auto colon = line.find(':');
            if (line.rfind("model name", 0) == 0 &&
                colon != std::string::npos) {
                cpu = line.substr(
                    line.find_first_not_of(" \t", colon + 1));
                break;
            }
        }
        cpu_set_t set;
        CPU_ZERO(&set);
        const int nproc =
            ::sched_getaffinity(0, sizeof(set), &set) == 0
                ? CPU_COUNT(&set)
                : 0;
#ifdef AHQ_BUILD_TYPE
        const std::string build = AHQ_BUILD_TYPE;
#else
        const std::string build = "unknown";
#endif
        return "cpu=" + cpu + " nproc=" + std::to_string(nproc) +
               " build=" + build;
    }();
    return fingerprint;
}

BenchArgs
parseBenchArgs(int argc, char **argv, const std::string &name)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json") {
            args.json = true;
        } else if (a.rfind("--json=", 0) == 0) {
            args.json = true;
            args.jsonPath = a.substr(std::strlen("--json="));
        } else {
            std::cerr << "usage: " << name
                      << " [--json[=FILE]]   (default FILE: "
                      << outputDir() << "/BENCH_" << name
                      << ".json)\n";
            std::exit(2);
        }
    }
    if (args.json && args.jsonPath.empty())
        args.jsonPath = outputDir() + "/BENCH_" + name + ".json";
    return args;
}

BenchJsonWriter::BenchJsonWriter(const BenchArgs &args)
    : enabled_(args.json), path_(args.jsonPath)
{
}

void
BenchJsonWriter::add(const std::string &benchmark, double wall_ms,
                     double throughput, const std::string &unit,
                     const std::string &config)
{
    if (!enabled_)
        return;
    std::string b = "{\"type\":\"bench\",\"benchmark\":";
    obs::json::appendString(b, benchmark);
    b += ",\"wall_ms\":";
    obs::json::appendNumber(b, wall_ms);
    b += ",\"throughput\":";
    obs::json::appendNumber(b, throughput);
    b += ",\"unit\":";
    obs::json::appendString(b, unit);
    b += ",\"config\":";
    obs::json::appendString(b, config);
    b += ",\"git_rev\":";
    obs::json::appendString(b, gitRev());
    b += ",\"fingerprint\":";
    obs::json::appendString(b, machineFingerprint());
    b += '}';
    lines_.push_back(std::move(b));
}

BenchJsonWriter::~BenchJsonWriter()
{
    if (!enabled_ || lines_.empty())
        return;
    std::ofstream out(path_);
    if (!out.is_open()) {
        std::cerr << "cannot write " << path_ << "\n";
        return;
    }
    for (const auto &line : lines_)
        out << line << "\n";
    std::cout << "perf trajectory written to " << path_ << "\n";
}

Stopwatch::Stopwatch() : start_(std::chrono::steady_clock::now()) {}

double
Stopwatch::seconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

// 20 ms outlasts a scheduler tick, so one sample of a sub-ms call
// averages over many calls. 0.15 s per variant gives the ~17-25 ms
// hot-path runs of the 2% gates five to eight samples each and
// keeps the ~30-row epoch_throughput near 5 s.
const double kSampleSeconds = 0.020;
const double kVariantBudgetSeconds = 0.15;

double
Timing::best() const
{
    double best = 1e300;
    for (const Sample &s : samples)
        best = std::min(best, s.seconds / static_cast<double>(s.calls));
    return best;
}

std::vector<Timing>
sampleInterleaved(const std::vector<std::function<void()>> &variants)
{
    std::vector<Timing> timings(variants.size());
    std::vector<double> spent(variants.size(), 0.0);
    while (!spent.empty() &&
           *std::min_element(spent.begin(), spent.end()) <
               kVariantBudgetSeconds) {
        for (std::size_t i = 0; i < variants.size(); ++i) {
            Sample s;
            const Stopwatch watch;
            do {
                variants[i]();
                ++s.calls;
                s.seconds = watch.seconds();
            } while (s.seconds < kSampleSeconds);
            spent[i] += s.seconds;
            timings[i].samples.push_back(s);
        }
    }
    return timings;
}

std::vector<double>
timeRows(const std::vector<Row> &rows, BenchJsonWriter &json)
{
    std::vector<std::function<void()>> calls;
    for (const Row &r : rows)
        calls.push_back(r.call);
    const std::vector<Timing> timings = sampleInterleaved(calls);

    std::vector<double> best;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        best.push_back(timings[i].best());
        json.add(r.name, best[i] * 1e3, r.work / best[i], r.unit,
                 r.config);
    }
    return best;
}

void
loadSweepFigure(const std::string &fig_name,
                const apps::AppProfile &primary,
                const apps::AppProfile &secondary_a,
                const apps::AppProfile &secondary_b,
                const apps::AppProfile &be_app)
{
    auto csv = openCsv(fig_name + ".csv",
                       {"secondary_load", "primary_load",
                        "strategy", "e_lc", "e_be", "e_s", "yield",
                        "p95_primary", "p95_a", "p95_b", "be_ipc"});

    const std::vector<double> sweep{0.1, 0.3, 0.5, 0.7, 0.9};
    const std::vector<double> fixed_loads{0.2, 0.4};

    // Simulate the whole (fixed, load, strategy) grid as one batch
    // across the pool, then render in the original order.
    std::vector<exec::ScenarioJob> grid;
    for (double fixed : fixed_loads) {
        for (double load : sweep) {
            cluster::Node node(
                machine::MachineConfig::xeonE52630v4(),
                {cluster::lcAt(primary, load),
                 cluster::lcAt(secondary_a, fixed),
                 cluster::lcAt(secondary_b, fixed),
                 cluster::be(be_app)});
            for (const auto &s : allStrategies()) {
                grid.push_back({s, node, standardConfig(),
                                fig_name + "/" + s + "@" +
                                    num(fixed * 100, 0) + "-" +
                                    num(load * 100, 0)});
            }
        }
    }
    const auto results = bench::runScenarios(grid);

    std::size_t ji = 0;
    for (double fixed : fixed_loads) {
        report::heading(std::cout,
                        fig_name + " — " + secondary_a.name + "/" +
                            secondary_b.name + " at " +
                            num(fixed * 100, 0) + "%, " +
                            primary.name + " sweeping, BE = " +
                            be_app.name);
        report::TextTable t({primary.name + " load", "strategy",
                             "E_LC", "E_BE", "E_S", "yield",
                             "p95 " + primary.name,
                             "p95 " + secondary_a.name,
                             "p95 " + secondary_b.name,
                             be_app.name + " IPC"});
        std::vector<report::Series> es_series;
        for (const auto &s : allStrategies())
            es_series.push_back({s, {}, {}});

        for (double load : sweep) {
            std::size_t si = 0;
            for (const auto &s : allStrategies()) {
                const auto &res = results[ji++];
                t.addRow({num(load * 100, 0) + "%", s,
                          num(res.meanELc), num(res.meanEBe),
                          num(res.meanES), num(res.yieldValue, 2),
                          num(res.meanP95Ms[0], 2),
                          num(res.meanP95Ms[1], 2),
                          num(res.meanP95Ms[2], 2),
                          num(res.meanIpc[3], 2)});
                csv->addRow({num(fixed, 2), num(load, 2), s,
                             num(res.meanELc), num(res.meanEBe),
                             num(res.meanES),
                             num(res.yieldValue, 3),
                             num(res.meanP95Ms[0], 3),
                             num(res.meanP95Ms[1], 3),
                             num(res.meanP95Ms[2], 3),
                             num(res.meanIpc[3], 3)});
                es_series[si].xs.push_back(load);
                es_series[si].ys.push_back(res.meanES);
                ++si;
            }
        }
        t.print(std::cout);
        report::lineChart(std::cout, es_series, 64, 14,
                          "E_S vs " + primary.name + " load (" +
                              secondary_a.name + "/" +
                              secondary_b.name + " at " +
                              num(fixed * 100, 0) + "%)");
    }
}

} // namespace ahq::bench
