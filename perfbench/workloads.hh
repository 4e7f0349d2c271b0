/**
 * @file
 * The benchmark's workloads and the two modes that measure them:
 * untraced (end-to-end metrics) and traced (per-layer metrics).
 */

#ifndef AHQBENCH_WORKLOADS_HH
#define AHQBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ahqbench
{

/** Command-line settings of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;

    /** Worker threads of the pooled workloads' thread pool. */
    int poolThreads = 1;
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
struct Report
{
    /** Measured units attempted, and those failing an output check. */
    long long attempted = 0;
    long long failed = 0;

    /** One line per failed check. */
    std::vector<std::string> failures;

    std::vector<Metric> metrics;

    /** Human-readable context (sample counts, sizes). */
    std::vector<std::string> notes;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Run one workload for opts.seconds of measurement. Untraced runs
 * report the end-to-end metrics, traced runs the per-layer ones.
 *
 * @throws std::invalid_argument on an unknown workload name.
 */
Report runWorkload(const Options &opts);

} // namespace ahqbench

#endif // AHQBENCH_WORKLOADS_HH
