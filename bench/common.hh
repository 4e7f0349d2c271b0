/**
 * @file
 * Shared plumbing for the bench binaries: standard colocations,
 * strategy registry, scenario runner, CSV output location, and the
 * one timing harness and BENCH_*.json writer of the timing benches.
 */

#ifndef AHQ_BENCH_COMMON_HH
#define AHQ_BENCH_COMMON_HH

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/catalog.hh"
#include "cluster/epoch_sim.hh"
#include "core/equivalence.hh"
#include "exec/scenario_runner.hh"
#include "exec/thread_pool.hh"
#include "obs/scope.hh"
#include "report/ascii_chart.hh"
#include "report/csv.hh"
#include "report/table.hh"
#include "sched/arq.hh"
#include "sched/clite.hh"
#include "sched/lc_first.hh"
#include "sched/parties.hh"
#include "sched/unmanaged.hh"

namespace ahq::bench
{

/**
 * Directory CSV series are written into (created on demand).
 * Overridable via the AHQ_BENCH_OUT environment variable;
 * thread-safe, so pool workers may race on the first call.
 */
std::string outputDir();

/** Open a CSV in the output directory ("fig08.csv" etc.). */
std::unique_ptr<report::CsvWriter>
openCsv(const std::string &filename,
        const std::vector<std::string> &header);

/**
 * The bench-wide telemetry scope, configured from the environment:
 * AHQ_TRACE=<path> opens a JSONL trace sink (parent directories
 * created on demand), AHQ_METRICS=1 routes counters into the global
 * registry and dumps it to stderr at exit. Both default to off, so
 * an unconfigured bench pays only null-pointer branches.
 */
obs::Scope benchScope();

/** The strategy names in the paper's presentation order. */
const std::vector<std::string> &allStrategies();

/**
 * The standard simulation configuration used by the Section VI
 * benches: 500 ms epochs, 120 s runs, the last 60 s aggregated.
 */
cluster::SimulationConfig standardConfig();

/**
 * Run one strategy on one node and return the aggregates.
 *
 * @param strategy Strategy name (see allStrategies()).
 * @param node The colocation.
 * @param cfg Simulation configuration.
 */
cluster::SimulationResult
runScenario(const std::string &strategy, const cluster::Node &node,
            const cluster::SimulationConfig &cfg);

/**
 * Batch counterpart of runScenario(): fan the jobs across
 * exec::globalPool() (AHQ_JOBS threads, defaulting to the hardware
 * concurrency) and return results in job order, bitwise identical
 * to running each job serially (each job carries its own seed).
 */
std::vector<cluster::SimulationResult>
runScenarios(const std::vector<exec::ScenarioJob> &jobs);

/** The paper's canonical 3-LC colocation plus a chosen BE app. */
cluster::Node
canonicalNode(double xapian_load, double moses_load,
              double imgdnn_load, const apps::AppProfile &be_app,
              const machine::MachineConfig &mc =
                  machine::MachineConfig::xeonE52630v4());

/**
 * The epoch hot path the seam-overhead benches time: 3600 epochs of
 * 500 ms, faults off, no retained epochs.
 */
cluster::SimulationConfig hotConfig();

/**
 * The fleet-shaped node those benches run: node 0 of a 4-node
 * global load generator (cluster::fleetNodeApps).
 */
cluster::Node hotNode();

/** Sweep helper: E_S as a function of available cores. */
core::EntropyCurve
entropyVsCores(const std::string &strategy,
               const std::vector<int> &core_counts, int ways,
               const apps::AppProfile &be_app,
               double xapian_load = 0.2);

/** Format a double for tables (shortcut). */
std::string num(double v, int precision = 3);

/**
 * The git revision the bench binary was configured from (the
 * AHQ_GIT_REV compile definition; "unknown" outside a checkout) —
 * stamped into BENCH_*.json so bench-diff can name what regressed.
 */
std::string gitRev();

/**
 * The machine a bench number was measured on: CPU model, the CPUs
 * this process may run on (what `nproc` prints) and the build type,
 * e.g. "cpu=Intel(R) Xeon(R) Processor nproc=4 build=Release".
 * Stamped into every BENCH_*.json row so bench-diff can say when a
 * baseline came from another machine or build.
 */
std::string machineFingerprint();

/** Parsed perf-trajectory flags for a bench main(). */
struct BenchArgs
{
    /** --json[=FILE] seen: emit a BENCH_<name>.json trajectory. */
    bool json = false;

    /** Destination; default outputDir()/BENCH_<name>.json. */
    std::string jsonPath;
};

/**
 * Parse a bench binary's argv: `--json` (default path) or
 * `--json=FILE`. Unknown options abort with a usage message on
 * stderr and exit code 2 — bench binaries have no other flags.
 *
 * @param name The bench's short name ("parallel_scaling").
 */
BenchArgs parseBenchArgs(int argc, char **argv,
                         const std::string &name);

/**
 * Perf-trajectory emitter: collects one row per timed workload and
 * writes them as BENCH_<name>.json — JSONL, one flat object per
 * line: {"type":"bench","benchmark":...,"wall_ms":...,
 * "throughput":...,"unit":...,"config":...,"git_rev":...,
 * "fingerprint":...} — the shape obs::parseTraceLine reads back and
 * `ahq report` / `ahq bench-diff` consume. A writer built from
 * BenchArgs with json=false drops every row, so benches call add()
 * unconditionally.
 */
class BenchJsonWriter
{
  public:
    explicit BenchJsonWriter(const BenchArgs &args);

    /** Writes the collected rows (no-op when --json was absent). */
    ~BenchJsonWriter();

    /**
     * Record one timed workload.
     *
     * @param benchmark Row name, unique within the file.
     * @param wall_ms Wall time in milliseconds.
     * @param throughput Work per second (0 = not meaningful).
     * @param unit What throughput counts ("epochs/s").
     * @param config Free-form knob summary ("threads=4 jobs=15").
     */
    void add(const std::string &benchmark, double wall_ms,
             double throughput, const std::string &unit,
             const std::string &config);

  private:
    bool enabled_;
    std::string path_;
    std::vector<std::string> lines_;
};

/**
 * Keep `v` observable, so the optimizer cannot delete the work that
 * computed it from a timed call.
 */
template <class T>
inline void
keep(const T &v)
{
    asm volatile("" : : "r,m"(v) : "memory");
}

/** Wall time since construction, on the monotonic clock. */
class Stopwatch
{
  public:
    Stopwatch();

    /** Seconds elapsed since construction. */
    double seconds() const;

  private:
    std::chrono::steady_clock::time_point start_;
};

/** A sample repeats its call until at least this much wall time. */
extern const double kSampleSeconds;

/** Rounds go on until every variant's samples add up to this. */
extern const double kVariantBudgetSeconds;

/** One sample: `calls` back-to-back calls taking `seconds` in all. */
struct Sample
{
    long calls = 0;
    double seconds = 0.0;
};

/** Every sample one variant got, in the order they were taken. */
struct Timing
{
    std::vector<Sample> samples;

    /** The lowest seconds per call over the samples. */
    double best() const;
};

/**
 * The one timer of the bench binaries. Runs the variants
 * round-robin, one sample of each per round, so every variant sees
 * the same machine conditions and all get the same number of
 * samples; a sample calls its variant until kSampleSeconds have
 * passed (at least once), and rounds go on until every variant's
 * samples add up to kVariantBudgetSeconds — so a variant slower
 * than the budget, timed alone, gets exactly one sample. Returns
 * one Timing per variant, in input order.
 */
std::vector<Timing>
sampleInterleaved(const std::vector<std::function<void()>> &variants);

/** One timed bench row: the call it times and how it is reported. */
struct Row
{
    /** Row name, unique within the BENCH file. */
    std::string name;

    /** Units of work one call completes (epochs, nodes, evals). */
    double work = 1.0;

    /** What the throughput counts ("epochs/s"). */
    std::string unit;

    /** Free-form knob summary ("epochs=60 ARQ"). */
    std::string config;

    /** One call of the timed work. */
    std::function<void()> call;
};

/**
 * Time `rows` together with sampleInterleaved(), add each row's
 * best call to `json` and return the best seconds per call, in row
 * order.
 */
std::vector<double> timeRows(const std::vector<Row> &rows,
                             BenchJsonWriter &json);

/**
 * The Section VI-A load-sweep figure shape shared by Figs. 8, 9 and
 * 11: one primary LC app sweeps 10-90% load while two secondary LC
 * apps sit at a fixed load (20%, then 40%), colocated with one BE
 * app; every strategy reports E_LC / E_BE / E_S plus tail latencies
 * and BE IPC.
 *
 * @param fig_name Short name for headings and the CSV file.
 * @param primary The sweeping LC app.
 * @param secondary_a First fixed-load LC app.
 * @param secondary_b Second fixed-load LC app.
 * @param be_app The BE app.
 */
void loadSweepFigure(const std::string &fig_name,
                     const apps::AppProfile &primary,
                     const apps::AppProfile &secondary_a,
                     const apps::AppProfile &secondary_b,
                     const apps::AppProfile &be_app);

} // namespace ahq::bench

#endif // AHQ_BENCH_COMMON_HH
