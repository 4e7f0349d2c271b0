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

/**
 * The analysis verbs over traces made once for the suite: a simulate
 * run with attribution and SLO alerts, a profiled sweep (span events
 * without wall times), a chaos run (several scenarios, fault markers),
 * an experiment run, a hand-written untagged trace with an alert
 * clear, a violation, an unknown event type and a blank line, and two
 * BENCH files. Each case digests stdout, stderr and the report file
 * it writes, if any.
 */
class CliGoldenAnalysis : public ::testing::Test
{
  protected:
    static constexpr const char *kSim = "/tmp/ahq_golden_sim.jsonl";
    static constexpr const char *kSweep = "/tmp/ahq_golden_sweep.jsonl";
    static constexpr const char *kChaos = "/tmp/ahq_golden_chaos.jsonl";
    static constexpr const char *kExp = "/tmp/ahq_golden_exp.jsonl";
    static constexpr const char *kMixed = "/tmp/ahq_golden_mixed.jsonl";
    static constexpr const char *kBenchOld = "/tmp/ahq_golden_old.json";
    static constexpr const char *kBenchNew = "/tmp/ahq_golden_new.json";
    static constexpr const char *kReport = "/tmp/ahq_golden_report.md";

    static void SetUpTestSuite()
    {
        const std::vector<std::vector<std::string>> runs{
            {"simulate", "--duration", "10", "--warmup", "4", "--seed", "7",
             "--attribute", "--slo", "--trace", kSim, "xapian=0.5",
             "moses=0.2", "stream"},
            {"sweep", "--duration", "4", "--warmup", "1", "--profile",
             "--jobs", "2", "--trace", kSweep, "xapian=0.5", "stream"},
            {"chaos", "--duration", "6", "--warmup", "2", "--attribute",
             "--slo", "--trace", kChaos},
            {"experiment", "run", "--nodes=3", "--blocks=6",
             "--block-epochs=4", "--resamples=50", "--tenants=8", "--seed",
             "7", "--trace", kExp},
        };
        for (const auto &argv : runs) {
            std::ostringstream out, err;
            made_ = made_ && dispatch(argv, out, err) == 0;
        }
        std::ofstream(kMixed)
            << "{\"v\":1,\"type\":\"run_start\",\"scheduler\":\"PARTIES\","
               "\"epochs\":4}\n"
               "{\"v\":1,\"type\":\"epoch\",\"epoch\":0,\"t\":0,"
               "\"e_s\":0.25}\n"
               "{\"v\":1,\"type\":\"parties_decision\",\"epoch\":0,"
               "\"action\":\"upsize\"}\n"
               "{\"v\":1,\"type\":\"violation\",\"epoch\":1,"
               "\"check\":\"capacity\"}\n"
               "{\"v\":1,\"type\":\"epoch\",\"epoch\":1,\"t\":0.5,"
               "\"e_s\":0.5}\n"
               "{\"v\":1,\"type\":\"alert_raise\",\"epoch\":1,\"app\":"
               "\"xapian\",\"burn_fast\":14.5,\"burn_slow\":7.25}\n"
               "{\"v\":1,\"type\":\"fault\",\"epoch\":2,\"fault\":"
               "\"measurement\"}\n"
               "{\"v\":1,\"type\":\"recovery\",\"epoch\":3}\n"
               "{\"v\":1,\"type\":\"alert_clear\",\"epoch\":3,\"app\":"
               "\"xapian\",\"burn_fast\":0.5,\"burn_slow\":2,"
               "\"duration\":2}\n"
               "{\"v\":1,\"type\":\"attribution\",\"epoch\":1,\"app\":"
               "\"xapian\",\"r_i\":0.5,\"culprits\":[\"stream\","
               "\"(noise)\"],\"resources\":[\"bandwidth\",\"other\"],"
               "\"shares\":[0.375,0.125]}\n"
               "{\"v\":1,\"type\":\"from_the_future\",\"x\":1}\n"
               "\n"
               "{\"v\":1,\"type\":\"series\",\"series\":\"e_s\",\"stride\":2,"
               "\"epochs\":4,\"capacity\":2,\"points\":4,\"n\":[2,2],"
               "\"min\":[0.25,0.5],\"max\":[0.5,1],\"sum\":[0.75,1.5]}\n"
               "{\"v\":1,\"type\":\"series\",\"series\":\"idle\","
               "\"stride\":1,\"epochs\":0,\"capacity\":2,\"points\":0,"
               "\"n\":[0,0],\"min\":[0,0],\"max\":[0,0],\"sum\":[0,0]}\n";
        const auto bench = [](const char *path, double slow) {
            std::ofstream f(path);
            f << "{\"type\":\"bench\",\"benchmark\":\"ARQ\",\"wall_ms\":"
              << 100 * slow << ",\"throughput\":" << 1000 / slow
              << ",\"unit\":\"epochs/s\",\"config\":\"c\","
                 "\"git_rev\":\"r\"}\n"
                 "{\"type\":\"bench\",\"benchmark\":\"PARTIES\","
                 "\"wall_ms\":50,\"throughput\":0,\"unit\":\"\","
                 "\"config\":\"\",\"git_rev\":\"\"}\n";
            if (slow > 1.0) {
                f << "{\"type\":\"bench\",\"benchmark\":\"CLITE\","
                     "\"wall_ms\":7,\"throughput\":3,\"unit\":\"eps\","
                     "\"config\":\"c\",\"git_rev\":\"r\"}\n";
            }
        };
        bench(kBenchOld, 1.0);
        bench(kBenchNew, 1.25);
    }

    static void TearDownTestSuite()
    {
        for (const char *f : {kSim, kSweep, kChaos, kExp, kMixed, kBenchOld,
                              kBenchNew})
            std::remove(f);
    }

    static bool made_;
};

bool CliGoldenAnalysis::made_ = true;

TEST_F(CliGoldenAnalysis, EveryVerbAndFormat)
{
    ASSERT_TRUE(made_) << "a run verb failed to make its trace";
    struct Case
    {
        std::vector<std::string> argv;
        int code;
        std::uint64_t golden;
        std::vector<std::string> files = {};
    };
    const std::vector<Case> cases{
        {{"trace", kSim}, 0, 0x5ff3c1f2428ff5dfULL},
        {{"trace", kChaos}, 0, 0xc4f1d31f37b062ccULL},
        {{"trace", kExp}, 0, 0x8fcfea858c81f1fdULL},
        {{"trace", kMixed}, 0, 0x9a429fc555598adfULL},
        {{"profile", kSweep}, 0, 0x3a4966a06291852eULL},
        {{"timeline", kSim}, 0, 0x69d07bf7cdfdfc42ULL},
        {{"timeline", "--scenario=PARTIES", "--series=e_s,faults",
          "--width=16", kChaos},
         0, 0xefd9e6ab3c230840ULL},
        {{"timeline", "--format=csv", "--series", "e_s,e_lc", kChaos},
         0, 0xef37abf1eb330cabULL},
        {{"timeline", "--format=json", "--scenario", "ARQ", kChaos},
         0, 0x59e8776689b3a20eULL},
        {{"timeline", kMixed}, 0, 0xf918db1e364965a9ULL},
        {{"timeline", "--format=csv", kMixed}, 0, 0x4e1ad8557a100f06ULL},
        {{"timeline", "--format=json", kMixed}, 0, 0x19cdb7658f186848ULL},
        {{"why", kSim}, 0, 0xca3c3f07b20eb129ULL},
        {{"why", "--top=3", "--scenario=CLITE", kChaos},
         0, 0xfbcbf344685664c6ULL},
        {{"why", "--format=csv", "--app=moses", kSim},
         0, 0x591e78ccb58847f5ULL},
        {{"why", "--format=json", "--top", "2", kChaos},
         0, 0xe04a67c5c7d87c79ULL},
        {{"why", kMixed}, 0, 0x4f088902600cf6f2ULL},
        {{"alerts", kChaos}, 0, 0x947ee60e3bd8dc96ULL},
        {{"alerts", "--format=csv", "--app=xapian", kChaos},
         0, 0x068fac6c9f8b2087ULL},
        {{"alerts", "--format=json", kChaos}, 0, 0xc93157a6cd90565bULL},
        {{"alerts", kMixed}, 0, 0x71e4fd517d83bf84ULL},
        {{"alerts", "--format=csv", kMixed}, 0, 0xff8b4f53a46a48b1ULL},
        {{"alerts", "--format=json", "--app", "xapian", kMixed},
         0, 0x5af75e7c12701588ULL},
        {{"report", kSim, kExp, kBenchOld, kMixed}, 0, 0x1a01490c425540bbULL},
        {{"report", "--format=md", kSim, kExp, kBenchOld, kMixed},
         0, 0xbde36735df4575d9ULL},
        {{"report", "--format=md", "-o", kReport, kSweep, kChaos},
         0, 0xeda7f25d33b11d4aULL,
         {kReport}},
        {{"experiment", "analyze", kExp, "--resamples", "30",
          "--confidence", "0.9"},
         0, 0xee1e063238a34fbcULL},
        {{"experiment", "verdict", "--resamples=30", "--confidence=0.5",
          kExp},
         0, 0x9a3d22245fd4ed99ULL},
        {{"experiment", "analyze", "--seed", "3", kExp},
         0, 0xe3661ffae4c783faULL},
        {{"bench-diff", "--baseline", kBenchOld, kBenchNew},
         1, 0xb4fd5b0fb60d3503ULL},
        {{"bench-diff", "--threshold=0.3", kBenchOld, kBenchNew},
         0, 0xc813625686f0dec7ULL},
    };
    for (const auto &c : cases) {
        std::string name;
        for (const auto &a : c.argv)
            name += a + " ";
        for (const auto &f : c.files)
            std::remove(f.c_str());
        std::ostringstream out, err;
        EXPECT_EQ(dispatch(c.argv, out, err), c.code)
            << name << ": " << err.str();
        std::vector<std::string> parts{out.str(), err.str()};
        for (const auto &f : c.files) {
            parts.push_back(slurp(f));
            EXPECT_FALSE(parts.back().empty()) << name << ": " << f;
            std::remove(f.c_str());
        }
        const std::uint64_t h = fnv(parts);
        EXPECT_EQ(h, c.golden) << "golden digest for " << name << "is now "
                               << hex(h) << " (was " << hex(c.golden)
                               << ")\n"
                               << parts[0];
    }
}

} // namespace
