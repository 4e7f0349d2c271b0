/**
 * @file
 * ahqbench: the repository benchmark's measuring binary (run it
 * through run.py, which builds it first).
 *
 *   ahqbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--rev REV]
 *
 * Prints a machine fingerprint, notes and one line per metric, then
 * as its last line one JSON object:
 * {"correct":...,"attempted":...,"failed":...,"metrics":{...}}.
 * Exit status 0 when a result was printed (correct=false if an
 * output check failed), 2 on bad arguments, 1 on any other error.
 */

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "workloads.hh"

namespace
{

using namespace ahqbench;

/** CPUs this process may run on (what `nproc` prints). */
int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "ahqbench: " << why
              << "\nusage: ahqbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--rev REV]\nworkloads:";
    for (const auto &w : workloadNames())
        std::cerr << ' ' << w;
    std::cerr << '\n';
    std::exit(2);
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::string rev = "unknown";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        try {
            if (arg == "--workload") {
                opts.workload = val;
            } else if (arg == "--seed") {
                opts.seed = std::stoull(val);
                have_seed = true;
            } else if (arg == "--seconds") {
                opts.seconds = std::stod(val);
                have_seconds = opts.seconds > 0.0;
            } else if (arg == "--trace") {
                if (val != "0" && val != "1")
                    usage("--trace takes 0 or 1");
                opts.trace = val == "1";
                have_trace = true;
            } else if (arg == "--rev") {
                rev = val;
            } else {
                usage("unknown option " + arg);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg + ": " + val);
        }
    }
    if (std::find(workloadNames().begin(), workloadNames().end(),
                  opts.workload) == workloadNames().end())
        usage("unknown workload '" + opts.workload + "'");
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds (> 0) and --trace are required");

    // At most nproc threads simulate at once: parallelFor also
    // drains on the calling thread, so the pool gets one fewer.
    const int cpus = usableCpus();
    opts.poolThreads = std::max(1, std::min(4, cpus) - 1);

    std::cout << "fingerprint: cpu=\"" << cpuModel() << "\" nproc=" << cpus
              << " build=" << AHQBENCH_BUILD_TYPE << " rev=" << rev
              << " pool=" << opts.poolThreads << "\n"
              << "workload: " << opts.workload << " seed=" << opts.seed
              << " seconds=" << opts.seconds
              << " mode=" << (opts.trace ? "traced" : "untraced") << "\n";

    Report rep;
    try {
        rep = runWorkload(opts);
    } catch (const std::exception &e) {
        std::cerr << "ahqbench: " << e.what() << '\n';
        return 1;
    }

    for (const auto &note : rep.notes)
        std::cout << "note: " << note << '\n';
    for (const auto &f : rep.failures)
        std::cout << "FAILED CHECK: " << f << '\n';
    for (auto &m : rep.metrics) {
        if (!std::isfinite(m.value)) {
            std::cerr << "ahqbench: metric " << m.name
                      << " is not finite\n";
            return 1;
        }
        std::cout << "metric: " << m.name << " = " << jsonNumber(m.value)
                  << ' ' << m.unit << '\n';
    }

    std::string json = "{\"correct\": ";
    json += rep.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted);
    json += ", \"failed\": " + std::to_string(rep.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const auto &m = rep.metrics[i];
        if (i > 0)
            json += ", ";
        json += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}
