/**
 * @file
 * Every run verb against every run flag. Each cell is either
 * honoured — exit 0 with a visible effect: the named file exists,
 * the dump or tree prints, the thread count changes, or the output
 * differs from a run without the flag — or rejected: exit 2 with
 * the flag and the verb named. Nothing is silently ignored.
 *
 * The expectation table below is written out independently of the
 * CLI's own lists; the `ahq help` table and the README table must
 * match it. The pins at the end each fail on the code that carried
 * the bug they name.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "cli_test_util.hh"
#include "exec/jobs.hh"
#include "exec/thread_pool.hh"

namespace
{

using namespace ahq::cli;
using namespace ahq::cli::test_util;

const std::string kTrace = "/tmp/ahq_flag_table.jsonl";
const std::string kCsv = "/tmp/ahq_flag_table.csv";
const std::string kPlan = "/tmp/ahq_flag_table_plan.jsonl";
const std::string kExpTrace = "/tmp/ahq_flag_table_exp.jsonl";

bool
exists(const std::string &path)
{
    return std::ifstream(path).good();
}

struct Outcome
{
    int code = 0;
    std::string out, err;
    std::string trace; // the trace file's bytes, if one was written
    bool csv = false;  // whether the CSV file was written
};

Outcome
run(const std::vector<std::string> &argv)
{
    std::remove(kTrace.c_str());
    std::remove(kCsv.c_str());
    Outcome r;
    std::ostringstream out, err;
    r.code = dispatch(argv, out, err);
    r.out = out.str();
    r.err = err.str();
    r.trace = slurp(kTrace);
    r.csv = exists(kCsv);
    std::remove(kTrace.c_str());
    std::remove(kCsv.c_str());
    return r;
}

/** What a run printed and traced, minus what differs run to run. */
std::string
signature(const Outcome &r)
{
    return stableStdout(r.out) + r.trace;
}

/** One flag as the table probes it. */
struct Probe
{
    std::string flag;
    std::string value; // empty for a flag that takes none

    /** Flags both runs of an honoured check carry, when honoured. */
    std::vector<std::pair<std::string, std::string>> companions;

    /** Non-empty: the visible effect is this text on stdout. */
    std::string marker;
};

const std::vector<Probe> &
probes()
{
    const std::pair<std::string, std::string> trace{"--trace", kTrace};
    const std::pair<std::string, std::string> metrics{"--metrics", ""};
    static const std::vector<Probe> all{
        {"--strategy", "PARTIES", {metrics}, ""},
        {"--duration", "3", {metrics}, ""},
        {"--warmup", "1", {metrics}, ""},
        {"--cores", "6", {metrics}, ""},
        {"--ways", "12", {metrics}, ""},
        {"--bw", "5", {metrics}, ""},
        // The bootstrap seed moves a verdict only near its edge.
        {"--seed",
         "7",
         {metrics, {"--confidence", "0.5"}, {"--resamples", "20"}},
         ""},
        {"--percentile", "0.9", {metrics, trace}, ""},
        {"--ri", "0.2", {metrics}, ""},
        // Audits show up as `audit` spans in the profile tree.
        {"--check", "log", {{"--profile", ""}, {"--check", "off"}},
         "audit"},
        {"--faults", kPlan, {metrics}, ""},
        {"--csv", kCsv, {}, ""},
        {"--trace", kTrace, {}, ""},
        {"--trace-sample", "0.3", {trace}, ""},
        {"--metrics", "", {}, "counter "},
        {"--attribute", "", {metrics, trace}, ""},
        {"--slo", "", {metrics, trace}, ""},
        {"--profile", "", {}, "profile (span tree"},
        {"--jobs", "3", {}, ""},
        {"--nodes", "3", {metrics}, ""},
        {"--lc", "1", {metrics}, ""},
        {"--be", "0", {metrics}, ""},
        {"--tenants", "4", {metrics}, ""},
        {"--zipf", "0.5", {metrics}, ""},
        {"--rebalance-every", "1", {metrics}, ""},
        // At the default spread this fleet migrates once; at 5 never.
        {"--spread",
         "5",
         {metrics, {"--rebalance-every", "1"}, {"--tenants", "2"}},
         ""},
        {"--design", "interleaved", {metrics}, ""},
        {"--arm-a", "PARTIES", {metrics}, ""},
        {"--arm-b", "CLITE", {metrics}, ""},
        {"--blocks", "4", {metrics}, ""},
        {"--block-epochs", "3", {metrics}, ""},
        {"--resamples", "7", {metrics, {"--confidence", "0.7"}}, ""},
        {"--confidence", "0.2", {metrics}, ""},
        {"--waystep", "8", {metrics}, ""},
    };
    return all;
}

/** A run verb, a valid invocation of it, and what it honours. */
struct Verb
{
    std::string name;
    std::vector<std::string> base;
    std::set<std::string> honoured;
};

const std::vector<std::string> kShared{
    "--strategy", "--duration",     "--warmup",  "--cores",
    "--ways",     "--bw",           "--seed",    "--percentile",
    "--ri",       "--check",        "--faults",  "--csv",
    "--trace",    "--trace-sample", "--metrics", "--attribute",
    "--slo",      "--profile",      "--jobs"};

std::set<std::string>
sharedBut(const std::set<std::string> &out)
{
    std::set<std::string> in;
    for (const auto &f : kShared)
        if (out.count(f) == 0)
            in.insert(f);
    return in;
}

std::set<std::string>
with(std::set<std::string> a, const std::set<std::string> &b)
{
    a.insert(b.begin(), b.end());
    return a;
}

const std::set<std::string> kShape{"--nodes", "--lc", "--be",
                                   "--tenants", "--zipf"};
const std::set<std::string> kDesign{"--nodes",  "--design",
                                    "--arm-a",  "--arm-b",
                                    "--blocks", "--block-epochs"};
const std::set<std::string> kEstimator{"--resamples", "--confidence"};

const std::vector<Verb> &
verbs()
{
    static const std::vector<Verb> all{
        {"simulate",
         {"simulate", "--duration", "2", "--warmup", "0", "xapian=0.5",
          "stream"},
         sharedBut({})},
        {"sweep",
         {"sweep", "--duration", "1", "--warmup", "0", "xapian=0.5",
          "stream"},
         sharedBut({"--strategy", "--csv"})},
        {"chaos",
         {"chaos", "--duration", "1", "--warmup", "0", "xapian=0.5",
          "stream"},
         sharedBut({"--strategy", "--csv"})},
        {"oracle",
         {"oracle", "--waystep", "4", "--cores", "4", "--ways", "8",
          "--bw", "4", "xapian=0.5", "stream"},
         {"--cores", "--ways", "--bw", "--percentile", "--ri", "--jobs",
          "--waystep"}},
        {"fleet",
         {"fleet", "--nodes", "2", "--duration", "2", "--warmup", "0",
          "--tenants", "8"},
         with(with(sharedBut({"--csv"}), kShape),
              {"--rebalance-every", "--spread"})},
        {"experiment design",
         {"experiment", "design"},
         with({"--seed", "--jobs"}, kDesign)},
        {"experiment run",
         {"experiment", "run", "--nodes", "2", "--blocks", "2",
          "--block-epochs", "2", "--resamples", "20", "--tenants", "8"},
         with(with(with(sharedBut({"--strategy", "--duration",
                                   "--warmup", "--csv"}),
                        kShape),
                   kDesign),
              kEstimator)},
        {"experiment analyze",
         {"experiment", "analyze", kExpTrace},
         with({"--seed"}, kEstimator)},
        {"experiment verdict",
         {"experiment", "verdict", kExpTrace},
         with({"--seed"}, kEstimator)},
    };
    return all;
}

class FlagTable : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        std::ofstream(kPlan)
            << "{\"fault\":\"measurement\",\"p_drop\":0.3}\n"
               "{\"fault\":\"load_spike\",\"app\":0,\"from_s\":0,"
               "\"until_s\":9,\"factor\":1.5}\n";
        std::ostringstream out, err;
        ASSERT_EQ(dispatch({"experiment", "run", "--nodes", "2",
                            "--blocks", "4", "--block-epochs", "2",
                            "--resamples", "20", "--tenants", "8",
                            "--trace", kExpTrace},
                           out, err),
                  0)
            << err.str();
    }

    static void TearDownTestSuite()
    {
        std::remove(kPlan.c_str());
        std::remove(kExpTrace.c_str());
        ahq::exec::setDefaultJobs(0);
    }
};

std::vector<std::string>
plus(std::vector<std::string> args, const std::string &flag,
     const std::string &value)
{
    args.push_back(flag);
    if (!value.empty())
        args.push_back(value);
    return args;
}

void
expectHonoured(const Verb &verb, const Probe &p)
{
    const std::string cell = verb.name + " " + p.flag;
    std::vector<std::string> base = verb.base;
    for (const auto &[flag, value] : p.companions)
        if (verb.honoured.count(flag) != 0)
            base = plus(base, flag, value);
    const auto flagged = plus(base, p.flag, p.value);

    if (p.flag == "--jobs")
        ahq::exec::setDefaultJobs(1);
    const Outcome on = run(flagged);
    ASSERT_EQ(on.code, 0) << cell << ": " << on.err;
    if (p.flag == "--jobs") {
        EXPECT_EQ(ahq::exec::globalPool().threads(), 3) << cell;
    } else if (p.flag == "--trace") {
        EXPECT_FALSE(on.trace.empty()) << cell;
    } else if (p.flag == "--csv") {
        EXPECT_TRUE(on.csv) << cell;
    } else if (!p.marker.empty()) {
        EXPECT_NE(on.out.find(p.marker), std::string::npos)
            << cell << ":\n" << on.out;
        const Outcome off = run(base);
        ASSERT_EQ(off.code, 0) << cell << ": " << off.err;
        EXPECT_EQ(off.out.find(p.marker), std::string::npos)
            << cell << " (without the flag):\n" << off.out;
    } else {
        const Outcome off = run(base);
        ASSERT_EQ(off.code, 0) << cell << ": " << off.err;
        // The baseline itself must be reproducible, or a difference
        // would prove nothing.
        EXPECT_EQ(signature(run(base)), signature(off)) << cell;
        EXPECT_NE(signature(on), signature(off))
            << cell << " changed nothing:\n" << on.out;
    }
}

void
expectRejected(const Verb &verb, const Probe &p)
{
    const std::string cell = verb.name + " " + p.flag;
    const Outcome r = run(plus(verb.base, p.flag, p.value));
    EXPECT_EQ(r.code, 2) << cell << ":\n" << r.out;
    EXPECT_NE(r.err.find(p.flag), std::string::npos) << cell << ": "
                                                     << r.err;
    EXPECT_NE(r.err.find(verb.name), std::string::npos)
        << cell << ": " << r.err;
}

TEST_F(FlagTable, EveryVerbHonoursOrRejectsEveryRunFlag)
{
    for (const auto &verb : verbs()) {
        ASSERT_EQ(run(verb.base).code, 0) << verb.name;
        for (const auto &p : probes()) {
            if (verb.honoured.count(p.flag) != 0)
                expectHonoured(verb, p);
            else
                expectRejected(verb, p);
        }
    }
}

TEST_F(FlagTable, EnvironmentStandInsFollowTheirFlags)
{
    const std::vector<std::pair<std::string, std::string>> env{
        {"AHQ_TRACE", "--trace"},
        {"AHQ_FAULTS", "--faults"},
        {"AHQ_PROF", "--profile"}};
    for (const auto &verb : verbs()) {
        for (const auto &[var, flag] : env) {
            const std::string cell = verb.name + " " + var;
            ::setenv(var.c_str(),
                     flag == "--trace"    ? kTrace.c_str()
                     : flag == "--faults" ? kPlan.c_str()
                                          : "1",
                     1);
            const Outcome r = run(verb.base);
            ::unsetenv(var.c_str());
            if (verb.honoured.count(flag) == 0) {
                EXPECT_EQ(r.code, 2) << cell;
                EXPECT_NE(r.err.find(flag), std::string::npos)
                    << cell << ": " << r.err;
                EXPECT_NE(r.err.find(var), std::string::npos)
                    << cell << ": " << r.err;
                EXPECT_NE(r.err.find(verb.name), std::string::npos)
                    << cell << ": " << r.err;
                continue;
            }
            EXPECT_EQ(r.code, 0) << cell << ": " << r.err;
            if (flag == "--trace") {
                EXPECT_FALSE(r.trace.empty()) << cell;
            }
            if (flag == "--profile") {
                EXPECT_NE(r.out.find("profile (span tree"),
                          std::string::npos)
                    << cell;
            }
        }
    }
}

/** verb -> shared flags, from rows "<verb>: --a --b" + continuations. */
std::map<std::string, std::set<std::string>>
usageTable()
{
    std::ostringstream out, err;
    EXPECT_EQ(dispatch({"help"}, out, err), 0);
    std::istringstream in(out.str());
    std::map<std::string, std::set<std::string>> table;
    std::string verb;
    bool in_table = false;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("shared run flags each verb honours", 0) == 0) {
            in_table = true;
            continue;
        }
        if (!in_table)
            continue;
        if (line.rfind("  ", 0) != 0)
            break; // the next section
        const auto colon = line.find(':');
        if (colon != std::string::npos) {
            verb = line.substr(2, colon - 2);
            line = line.substr(colon + 1);
        }
        std::istringstream words(line);
        for (std::string w; words >> w;)
            table[verb].insert(w);
    }
    return table;
}

/** The same table from README.md's "| `verb` | `--a` `--b` |" rows. */
std::map<std::string, std::set<std::string>>
readmeTable()
{
    std::ifstream in(AHQ_README_MD);
    std::map<std::string, std::set<std::string>> table;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("| `", 0) != 0)
            continue;
        const auto end = line.find('`', 3);
        const std::string verb = line.substr(3, end - 3);
        for (auto at = line.find("`--", end); at != std::string::npos;
             at = line.find("`--", at + 1)) {
            table[verb].insert(
                line.substr(at + 1, line.find('`', at + 1) - at - 1));
        }
    }
    return table;
}

TEST_F(FlagTable, UsageAndReadmeTablesMatch)
{
    const auto usage = usageTable();
    const auto readme = readmeTable();
    for (const auto &verb : verbs()) {
        std::set<std::string> shared;
        for (const auto &f : verb.honoured)
            if (std::find(kShared.begin(), kShared.end(), f) !=
                kShared.end())
                shared.insert(f);
        ASSERT_EQ(usage.count(verb.name), 1u) << verb.name;
        EXPECT_EQ(usage.at(verb.name), shared) << verb.name;
        ASSERT_EQ(readme.count(verb.name), 1u) << verb.name;
        EXPECT_EQ(readme.at(verb.name), shared) << verb.name;
    }
}

TEST_F(FlagTable, OracleRiWeightsTheSearch)
{
    const std::vector<std::string> args{
        "oracle", "--waystep", "4", "xapian=0.5", "moses=0.2", "stream"};
    const Outcome plain = run(args);
    const Outcome weighted = run(plus(args, "--ri", "0.2"));
    ASSERT_EQ(plain.code, 0) << plain.err;
    ASSERT_EQ(weighted.code, 0) << weighted.err;
    const auto first = [](const std::string &s) {
        return s.substr(0, s.find('\n'));
    };
    EXPECT_NE(first(plain.out), first(weighted.out));
}

TEST_F(FlagTable, AnalyzeReproducesARunsCisAtItsSeed)
{
    const std::string path = "/tmp/ahq_flag_table_seed7.jsonl";
    const std::vector<std::string> shape{
        "--nodes", "2", "--blocks", "4", "--block-epochs", "2",
        "--resamples", "30", "--tenants", "8", "--seed", "7"};
    std::vector<std::string> args{"experiment", "run", "--trace", path};
    args.insert(args.end(), shape.begin(), shape.end());
    const Outcome ran = run(args);
    ASSERT_EQ(ran.code, 0) << ran.err;
    const Outcome analyzed =
        run({"experiment", "analyze", path, "--resamples", "30",
             "--seed", "7"});
    std::remove(path.c_str());
    ASSERT_EQ(analyzed.code, 0) << analyzed.err;
    // The estimate table and verdict, byte for byte.
    EXPECT_NE(ran.out.find(analyzed.out), std::string::npos)
        << ran.out << "\nvs\n" << analyzed.out;
}

TEST_F(FlagTable, MalformedValuesExitTwoNamingTheFlag)
{
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        cases{
            {"--top", {"why", "--top=3x", "x.jsonl"}},
            {"--top", {"why", "--top=abc", "x.jsonl"}},
            {"--width", {"timeline", "--width=40abc", "x.jsonl"}},
            {"--confidence", {"experiment", "run", "--confidence=nan"}},
            {"--zipf", {"experiment", "run", "--zipf=-3"}},
            {"--threshold",
             {"bench-diff", "--threshold=0.3x", "a.json", "b.json"}},
        };
    for (const auto &[flag, args] : cases) {
        const Outcome r = run(args);
        EXPECT_EQ(r.code, 2) << args[1] << ": " << r.out;
        // The error line itself, not a usage text after it.
        const std::string error = r.err.substr(0, r.err.find('\n'));
        EXPECT_NE(error.find(flag), std::string::npos)
            << flag << ": " << r.err;
    }
}

TEST_F(FlagTable, KeepEpochsIsGone)
{
    const Outcome r = run({"fleet", "--nodes", "2", "--keep-epochs"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("--keep-epochs"), std::string::npos) << r.err;
}

} // namespace
