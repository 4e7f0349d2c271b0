/**
 * @file
 * Golden output digests at the CLI surface: a byte oracle for the
 * run verbs that holds across commits.
 *
 * Each case drives one `ahq` run verb in-process and folds what it
 * produced — its stdout with run-to-run lines dropped, plus the
 * bytes of every trace and CSV file it wrote — into one
 * FNV-1a-64 digest pinned below. A refactor of the option handling
 * or the node fan-out must leave every digest alone.
 *
 * Dropped from stdout: the fleet "wall ... nodes/s" line, the
 * console span tree (its columns are wall times), the sum of every
 * metrics histogram (a float total whose summation order follows
 * the worker interleaving) and the wall-time histograms themselves.
 *
 * A deliberate output change re-records the digests: run this test,
 * copy each printed "now 0x..." value into the table, and say in the
 * change description that the outputs moved and why.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "cli_test_util.hh"

namespace
{

using namespace ahq::cli;
using namespace ahq::cli::test_util;

std::uint64_t
fnv(const std::vector<std::string> &parts)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const auto &p : parts) {
        const std::uint64_t n = p.size();
        for (std::size_t k = 0; k < sizeof(n); ++k) {
            h ^= static_cast<unsigned char>(n >> (8 * k));
            h *= 1099511628211ULL;
        }
        for (const char c : p) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ULL;
        }
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

/**
 * Run one verb; digest normalized stdout plus the listed files, which
 * are removed afterwards.
 */
void
expectGolden(const std::string &name,
             const std::vector<std::string> &argv,
             const std::vector<std::string> &files,
             std::uint64_t golden)
{
    for (const auto &f : files)
        std::remove(f.c_str());
    std::ostringstream out, err;
    ASSERT_EQ(dispatch(argv, out, err), 0) << name << ": " << err.str();
    std::vector<std::string> parts{stableStdout(out.str())};
    for (const auto &f : files) {
        parts.push_back(slurp(f));
        EXPECT_FALSE(parts.back().empty()) << name << ": " << f;
        std::remove(f.c_str());
    }
    const std::uint64_t h = fnv(parts);
    EXPECT_EQ(h, golden) << "golden digest for " << name
                         << " is now " << hex(h) << " (was "
                         << hex(golden) << ")\n"
                         << parts[0];
}

const std::string kTrace = "/tmp/ahq_cli_golden.jsonl";
const std::string kCsv = "/tmp/ahq_cli_golden.csv";

TEST(CliGolden, Simulate)
{
    expectGolden("simulate",
                 {"simulate", "--duration", "10", "--warmup", "4",
                  "--seed", "7", "--trace", kTrace, "--trace-sample",
                  "0.5", "--csv", kCsv, "--metrics", "--attribute",
                  "--slo", "--check", "log", "xapian=0.5", "moses=0.2",
                  "stream"},
                 {kTrace, kCsv}, 0xb02bdb0f12e27976ULL);
}

TEST(CliGolden, Sweep)
{
    expectGolden("sweep",
                 {"sweep", "--duration", "4", "--warmup", "1",
                  "--trace", kTrace, "--metrics", "--profile",
                  "--attribute", "--slo", "--jobs", "4", "xapian=0.5",
                  "stream"},
                 {kTrace}, 0xb3066f4629808978ULL);
}

TEST(CliGolden, Chaos)
{
    expectGolden("chaos",
                 {"chaos", "--duration", "6", "--warmup", "2", "--trace",
                  kTrace, "--metrics", "--profile", "--jobs", "3"},
                 {kTrace}, 0x68c0de5031c9e3abULL);
}

TEST(CliGolden, Oracle)
{
    expectGolden("oracle",
                 {"oracle", "--waystep", "4", "--cores", "6", "--ways",
                  "8", "--bw", "6", "--percentile", "0.9", "--jobs", "2",
                  "xapian=0.5", "stream"},
                 {}, 0x9921509e4480de2eULL);
}

TEST(CliGolden, ExperimentRun)
{
    expectGolden("experiment run",
                 {"experiment", "run", "--design=switchback",
                  "--arm-a=ARQ", "--arm-b=PARTIES", "--nodes=2",
                  "--blocks=2", "--block-epochs=4", "--resamples=50",
                  "--tenants=8", "--zipf=0.8", "--seed", "7", "--jobs",
                  "2", "--trace", kTrace, "--metrics"},
                 {kTrace}, 0xe8475545a6759c88ULL);
}

TEST(CliGolden, FleetPlain)
{
    expectGolden("fleet plain",
                 {"fleet", "--nodes", "3", "--duration", "6", "--warmup",
                  "2", "--tenants", "16", "--trace", kTrace, "--metrics",
                  "--attribute", "--slo", "--jobs", "2"},
                 {kTrace}, 0x82c85747d7860e2dULL);
}

TEST(CliGolden, FleetNodeCrash)
{
    const std::string plan = "/tmp/ahq_cli_golden_crash.jsonl";
    {
        std::ofstream f(plan);
        f << "{\"fault\":\"node_crash\",\"node\":1,\"at_s\":2}\n";
    }
    expectGolden("fleet node_crash",
                 {"fleet", "--nodes", "3", "--duration", "6", "--warmup",
                  "2", "--faults", plan, "--trace", kTrace, "--metrics",
                  "--jobs", "3"},
                 {kTrace}, 0x72a2bbf853266096ULL);
    std::remove(plan.c_str());
}

TEST(CliGolden, FleetRebalance)
{
    expectGolden("fleet rebalance",
                 {"fleet", "--nodes", "4", "--duration", "12", "--warmup",
                  "2", "--rebalance-every", "6", "--spread", "0.0001",
                  "--trace", kTrace, "--metrics", "--attribute",
                  "--jobs", "2"},
                 {kTrace}, 0x3cc0fadf93513e45ULL);
}

} // namespace
