/**
 * @file
 * The `ahq` command-line tool's parsing and execution layer, kept
 * separate from main() so the test suite can exercise it.
 *
 * Subcommands:
 *   ahq entropy <observations.csv>
 *       Compute E_LC / E_BE / E_S from measured observations.
 *       CSV rows: "lc,<name>,<ideal_ms>,<actual_ms>,<threshold_ms>"
 *               | "be,<name>,<ipc_solo>,<ipc_real>"
 *   ahq simulate [options] <app>=<load>... <be_app>...
 *       Simulate a colocation under a strategy.
 *   ahq chaos [options] [<app>=<load>... <be_app>...]
 *       Run every strategy under an injected fault plan with the
 *       strict invariant auditor watching (see docs/FAULTS.md).
 *   ahq apps | ahq strategies
 *       List the catalogue / the strategy registry.
 *
 * Every verb parses its arguments through one grammar (Flags), and
 * every run verb turns the shared run flags into its simulation
 * settings and telemetry through one RunContext. Each run verb
 * declares the shared flags it honours (runVerbs()); any other
 * shared flag — or the AHQ_TRACE / AHQ_FAULTS / AHQ_PROF variable
 * standing in for one — exits 2 naming the flag and the verb.
 */

#ifndef AHQ_TOOLS_CLI_HH
#define AHQ_TOOLS_CLI_HH

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "check/check.hh"
#include "cluster/epoch_sim.hh"
#include "core/entropy.hh"
#include "fault/plan.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/timeseries.hh"
#include "obs/trace_sink.hh"

namespace ahq::trace
{
struct FleetLoadConfig;
} // namespace ahq::trace

namespace ahq::cli
{

/**
 * Parse an integer flag value. Fractional or trailing input, and
 * values outside [min_v, max_v], fail with a message naming the flag
 * and the accepted range.
 *
 * @throws std::invalid_argument
 */
long long parseInt(const std::string &s, const std::string &flag,
                   long long min_v =
                       std::numeric_limits<long long>::min(),
                   long long max_v =
                       std::numeric_limits<long long>::max());

/** parseInt() for an int-valued count. */
int parseCount(const std::string &s, const std::string &flag, int min_v,
               int max_v = std::numeric_limits<int>::max());

/**
 * Parse a finite number; NaN, infinities and trailing input fail
 * with a message naming the flag.
 *
 * @throws std::invalid_argument
 */
double parseNumber(const std::string &s, const std::string &flag);

/**
 * `value` if it is one of `choices`, else an error naming the flag.
 *
 * @throws std::invalid_argument
 */
std::string oneOf(const std::string &value, const std::string &flag,
                  const std::vector<std::string> &choices);

/**
 * The flag grammar every `ahq` verb parses through. A verb registers
 * the flags it accepts; parse() splits "--flag value" and
 * "--flag=value", hands each value to its flag's setter and returns
 * the positional arguments in order. An argument starting with '-'
 * that the verb did not register, or unregistered with reject(),
 * fails naming the flag and the verb.
 */
class Flags
{
  public:
    /** @param verb The verb named in error messages. */
    explicit Flags(std::string verb) : verb_(std::move(verb)) {}

    /** A flag taking a value; re-registering a name replaces it. */
    Flags &value(const std::string &name,
                 std::function<void(const std::string &)> set);

    /** A flag taking no value. */
    Flags &toggle(const std::string &name, std::function<void()> set);

    /** Unregister a flag, so parse() refuses it. */
    Flags &reject(const std::string &name);

    const std::string &verb() const { return verb_; }

    /** @throws std::invalid_argument on any malformed argument. */
    std::vector<std::string>
    parse(const std::vector<std::string> &args) const;

  private:
    struct Spec
    {
        bool takesValue = false;
        std::function<void(const std::string &)> set;
    };
    std::string verb_;
    std::map<std::string, Spec> specs_;
};

/**
 * The one positional argument (a trace file) an analysis verb takes.
 *
 * @throws std::invalid_argument when there is none or more than one.
 */
std::string onePath(const std::vector<std::string> &positional);

/** A run verb and the shared run flags it honours. */
struct RunVerb
{
    std::string name;
    std::vector<std::string> honoured;
};

/**
 * Every run verb with the shared flags it honours, in usage order —
 * the table `ahq help` prints and RunContext enforces.
 */
const std::vector<RunVerb> &runVerbs();

/** Parsed command line for the simulate subcommand. */
struct SimulateOptions
{
    std::string strategy = "ARQ";
    double durationSeconds = 120.0;
    int warmupEpochs = 120;
    int cores = 10;
    int ways = 20;
    int bwUnits = 10;
    std::uint64_t seed = 42;
    double percentile = 0.95;

    /** Relative importance of LC in E_S (--ri, Eq. 7's RI). */
    double ri = core::kDefaultRelativeImportance;

    /**
     * Invariant-audit mode (--check off|log|strict); defaults to
     * the AHQ_CHECK environment variable.
     */
    check::Mode checkMode = check::modeFromEnv();

    /** True when --check appeared (chaos defaults to strict). */
    bool checkModeExplicit = false;

    /**
     * JSONL fault plan (--faults, or the AHQ_FAULTS environment
     * variable when the flag is absent); empty = no injection.
     */
    std::string faultsPath;

    std::string csvPath; // empty = no CSV dump

    /**
     * JSONL trace destination (--trace, or the AHQ_TRACE
     * environment variable when the flag is absent); empty = off.
     */
    std::string tracePath;

    /**
     * Head-based trace sampling rate (--trace-sample, in [0, 1];
     * default 1 = keep every epoch). Below 1, each epoch's trace
     * events are kept iff a seeded draw on the epoch's own RNG
     * split lands under the rate — a pure function of
     * (seed, run, node, epoch), so sampled traces stay
     * byte-identical at any --jobs while tracing a large fleet
     * costs bounded IO. Time-series recording is never sampled.
     */
    double traceSampleRate = 1.0;

    /** Dump the metrics registry after the run (--metrics). */
    bool dumpMetrics = false;

    /**
     * Counterfactual interference attribution (--attribute): build
     * the per-(victim, culprit, resource) blame ledger during the
     * run, print it afterwards and emit `attribution` trace events
     * when tracing. Off by default — the dormant seam is one branch
     * per epoch.
     */
    bool attribute = false;

    /**
     * Online SLO burn-rate monitoring (--slo): feed each LC app's
     * per-epoch violation bit to the multi-window burn-rate
     * detector, print the alert totals and emit `alert_raise` /
     * `alert_clear` trace events when tracing. Off by default.
     */
    bool slo = false;

    /**
     * Self-profile the run (--profile, or the AHQ_PROF environment
     * variable): attach a SpanProfiler to the hot paths and print
     * the span tree afterwards. simulate turns wall-clock fields on
     * (a single run owns its trace); every fan-out verb keeps them
     * off so span-bearing traces stay byte-identical at any --jobs.
     */
    bool profile = false;

    /**
     * Worker threads for parallel paths (the oracle search); 0 =
     * keep the AHQ_JOBS / hardware default. Results are identical
     * at any thread count.
     */
    int jobs = 0;

    /** "name=load" LC entries and bare BE names, in order. */
    std::vector<std::pair<std::string, double>> lcApps;
    std::vector<std::string> beApps;
};

/**
 * Parse a run verb's command line into `opt`: the shared run flags
 * (those the verb of `flags` honours set `opt`, the others are
 * refused), any verb-specific flags already registered on `flags`,
 * then the AHQ_TRACE / AHQ_FAULTS / AHQ_PROF stand-ins. Numeric
 * flags are validated eagerly — a fractional --cores, a zero --jobs
 * or an out-of-range --ri fails here naming the flag and the
 * accepted range. Returns the positional arguments.
 *
 * @throws std::invalid_argument on malformed or refused input.
 */
std::vector<std::string>
parseRunFlags(Flags &flags, SimulateOptions &opt,
              const std::vector<std::string> &args);

/**
 * Register the --nodes/--lc/--be/--tenants/--zipf workload shape
 * that fleet and experiment share, writing into `load`.
 */
void addWorkloadShape(Flags &flags, trace::FleetLoadConfig &load);

/**
 * Parse simulate's command line: every shared run flag, then at
 * least one app spec ("name=load" LC entries and bare BE names).
 *
 * @throws std::invalid_argument on malformed input.
 */
SimulateOptions parseSimulateArgs(const std::vector<std::string> &args);

/**
 * One run's settings and telemetry, built from its parsed options:
 * the common SimulationConfig fields, plus the fault plan, trace
 * sink, metrics registry, span profiler and series registry that
 * config points at. Not copyable — config points into it.
 */
class RunContext
{
  public:
    /**
     * Applies --jobs, loads --faults and opens --trace (throwing on
     * a malformed plan or an unwritable path).
     *
     * @param scenario Scenario tag of the run's top-level events.
     */
    RunContext(const SimulateOptions &options, std::string scenario);

    RunContext(const RunContext &) = delete;
    RunContext &operator=(const RunContext &) = delete;

    /** The node hardware, cut to --cores / --ways / --bw. */
    machine::MachineConfig machine() const;

    /**
     * The finish sequence: the span tree (--profile, under
     * `tree_title`), the series flush and sink flush (--trace), and
     * the metrics dump (--metrics).
     */
    void finish(std::ostream &out, const std::string &tree_title);

    const SimulateOptions &opt;
    cluster::SimulationConfig config;
    fault::FaultPlan plan;
    std::unique_ptr<obs::FileTraceSink> sink;
    obs::MetricsRegistry metrics;
    obs::SpanProfiler prof;
    obs::TimeSeriesRegistry series;
};

/**
 * Parse an observations CSV into entropy inputs.
 *
 * @throws std::invalid_argument on malformed rows,
 *         std::runtime_error when the file cannot be read.
 */
void parseObservationsCsv(const std::string &path,
                          std::vector<core::LcObservation> &lc,
                          std::vector<core::BeObservation> &be);

/** Run `ahq entropy`. Returns a process exit code. */
int runEntropy(const std::vector<std::string> &args,
               std::ostream &out, std::ostream &err);

/** Run `ahq simulate`. Returns a process exit code. */
int runSimulate(const std::vector<std::string> &args,
                std::ostream &out, std::ostream &err);

/**
 * Run `ahq oracle`: search the best static partition of both
 * families (isolated / hybrid) for a colocation. Accepts the same
 * app specs and machine flags as simulate, --percentile, --ri (the
 * search's E_S weighting), --jobs and --waystep.
 */
int runOracle(const std::vector<std::string> &args,
              std::ostream &out, std::ostream &err);

/**
 * Run `ahq chaos`: run every registered strategy over one
 * colocation with a fault plan injected (--faults / AHQ_FAULTS, or
 * a built-in plan when neither is given) and the invariant auditor
 * in strict mode unless --check overrides it. Prints the
 * per-strategy entropy table plus the fault / recovery counters.
 * Accepts simulate's flags but --strategy/--csv; app specs are
 * optional (a canonical chaos colocation is used when none are
 * given).
 */
int runChaos(const std::vector<std::string> &args, std::ostream &out,
             std::ostream &err);

/**
 * Run `ahq fleet`: simulate a datacenter-scale fleet whose
 * workload comes from the global load generator (diurnal curves,
 * Zipf tenant skew, flash crowds over --nodes x --tenants),
 * aggregated through the streaming fleet accumulators. With
 * --rebalance-every E the entropy-driven ClusterScheduler
 * migrates apps off the hottest node between E-epoch rounds
 * (--spread sets the trigger); without it one plain Fleet::run.
 * Accepts the shared run flags (no app specs — the generator
 * synthesizes the workload) plus --nodes --lc --be --tenants
 * --zipf --rebalance-every --spread (implemented in fleet_cmd.cc).
 */
int runFleet(const std::vector<std::string> &args, std::ostream &out,
             std::ostream &err);

/**
 * Run `ahq experiment <design|run|analyze|verdict>`: online
 * two-arm policy experiments over the fleet's policy-swap seam
 * (src/experiment/). `design` prints the randomized (node x block)
 * arm assignment — a pure function of (seed, design) — `run`
 * executes it and prints the naive / Differences-in-Q / mixed
 * contrast estimates with bootstrap CIs and the verdict, `analyze`
 * re-estimates from a run's trace (experiment_block events), and
 * `verdict` prints just the one-line outcome. Flags: --design
 * switchback|interleaved --arm-a S --arm-b S --nodes N --blocks N
 * --block-epochs N --resamples N --confidence C plus the fleet
 * workload shape (--lc --be --tenants --zipf) and the shared run
 * flags each verb honours (implemented in experiment_cmd.cc).
 */
int runExperiment(const std::vector<std::string> &args,
                  std::ostream &out, std::ostream &err);

/**
 * Run `ahq sweep`: sweep the FIRST LC app's load from 10% to 90%
 * (its given load is ignored) under every strategy, printing the
 * E_S table — a command-line Fig. 8. Accepts simulate's flags but
 * --strategy/--csv.
 */
int runSweep(const std::vector<std::string> &args, std::ostream &out,
             std::ostream &err);

/**
 * Run `ahq trace <file.jsonl>`: summarise a trace produced with
 * --trace / AHQ_TRACE — epoch counts and E_S timeline per scenario,
 * scheduler decision totals (moves, rollbacks, bans), per-app ReT
 * summary (implemented in trace_cmd.cc). Takes exactly one path and
 * no flags. Like every analysis verb it reads through foldTrace()
 * (trace_fold.hh) and exits 1 on bad input, 2 on a usage error.
 */
int runTrace(const std::vector<std::string> &args, std::ostream &out,
             std::ostream &err);

/**
 * Run `ahq timeline [--series=LIST] [--scenario=TAG]
 * [--format=text|csv|json] [--width=N] <file.jsonl>`: render the
 * `series` events of a trace as aligned text sparklines (default),
 * CSV rows or JSON — per-(scenario, series) bucket timelines with
 * fault / recovery / violation markers, enough to reproduce the
 * paper's Fig. 13 entropy timeline from any run, sweep or chaos
 * invocation (implemented in timeline_cmd.cc).
 */
int runTimeline(const std::vector<std::string> &args,
                std::ostream &out, std::ostream &err);

/**
 * Run `ahq why [--scenario=TAG] [--app=NAME] [--top=N]
 * [--format=text|csv|json] <file.jsonl>`: fold the `attribution`
 * events of a --trace --attribute run into the per-(victim,
 * culprit, resource) blame table — "who is hurting my LC app, and
 * through which resource" — sorted by attributed interference
 * share (implemented in why_cmd.cc). Exits 1 on malformed input or
 * when the trace carries no attribution events.
 */
int runWhy(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err);

/**
 * Run `ahq alerts [--scenario=TAG] [--app=NAME]
 * [--format=text|csv|json] <file.jsonl>`: list the `alert_raise` /
 * `alert_clear` events of a --trace --slo run as a timeline plus
 * per-(scenario, app) totals — raises, clears, alerts still active
 * at the end of the run (implemented in alerts_cmd.cc). Exits 1 on
 * malformed input or when the trace carries no alert events.
 */
int runAlerts(const std::vector<std::string> &args,
              std::ostream &out, std::ostream &err);

/**
 * Run `ahq profile <file.jsonl>`: aggregate the `span` events of a
 * profiled trace into a flame-style indented tree per scenario —
 * count, total/mean/p99 wall time (when the trace carries timing)
 * and each span's share of its parent (implemented in
 * profile_cmd.cc). Takes exactly one path and no flags. Exits 1
 * with a line-numbered error and no partial table on malformed
 * input.
 */
int runProfile(const std::vector<std::string> &args,
               std::ostream &out, std::ostream &err);

/**
 * Print a live profiler's aggregates as the same indented span
 * tree `ahq profile` renders — the --profile console output of
 * simulate/sweep/chaos (implemented in profile_cmd.cc).
 *
 * @param wall_times Include total/mean/p99/max columns and the
 *        %-of-parent share (they vary run to run; counts do not).
 */
void printSpanProfile(std::ostream &out,
                      const obs::SpanProfiler &prof,
                      bool wall_times);

/**
 * A blame ledger's rows, largest attributed share first (ties broken
 * by ledger key order, so the output is deterministic), cut to the
 * `top` largest; 0 = all. The one row list behind printBlameTable()
 * and `ahq why --format=csv|json`.
 */
std::vector<obs::AttributionRow>
blameRows(const obs::AttributionLedger &ledger, std::size_t top);

/**
 * Print blameRows(ledger, top) as a text table — the console
 * rendering simulate/fleet/experiment use for --attribute and
 * `ahq why` uses for its text format.
 */
void printBlameTable(std::ostream &out,
                     const obs::AttributionLedger &ledger,
                     std::size_t top);

/** Print one run's alert accounting (the --slo console line). */
void printSloSummary(std::ostream &out, const obs::SloSummary &slo);

/**
 * Run `ahq report [--format=json|md] [-o FILE] <input>...`: fold
 * traces and BENCH_*.json files from one or more runs into a single
 * JSON or Markdown summary (implemented in report_cmd.cc).
 */
int runReport(const std::vector<std::string> &args,
              std::ostream &out, std::ostream &err);

/**
 * Run `ahq bench-diff [--threshold=T] [--baseline <old.json>]
 * <old.json> <new.json>`: compare two BENCH_*.json perf-trajectory
 * files by benchmark name, print the per-benchmark speedup ratio
 * (new/old throughput, or old/new wall time when a row has no
 * throughput; geometric mean in the footer) and flag regressions
 * beyond the threshold (default 10%). With --baseline only the new
 * file is passed positionally — the CI shape, where the old file
 * is a committed baseline. When the two files' machine fingerprints
 * differ (a file without one reads as none), one `fingerprint:`
 * line naming both comes first. Exit 0 when clean, 1 when a
 * regression is flagged, 2 on usage or parse errors (implemented in
 * report_cmd.cc).
 */
int runBenchDiff(const std::vector<std::string> &args,
                 std::ostream &out, std::ostream &err);

/** Run `ahq apps`. */
int runApps(std::ostream &out);

/**
 * Run `ahq checks`: list the registered invariant checks (name,
 * paper reference, summary) that AHQ_CHECK / --check enables.
 */
int runChecks(std::ostream &out);

/** Run `ahq strategies`. */
int runStrategies(std::ostream &out);

/** Top-level dispatch; argv excludes the program name. */
int dispatch(const std::vector<std::string> &argv, std::ostream &out,
             std::ostream &err);

} // namespace ahq::cli

#endif // AHQ_TOOLS_CLI_HH
