/**
 * @file
 * Tests for the `ahq experiment` subcommand: verb round-trips
 * through real JSONL traces and the --jobs byte-identity guarantee
 * at the CLI surface (the harness-level twin lives in
 * tests/experiment/harness_test.cc).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "cli_test_util.hh"

namespace
{

using namespace ahq::cli;
using namespace ahq::cli::test_util;

/** A tiny but complete experiment invocation. */
std::vector<std::string>
runArgs(const std::string &trace, const std::string &jobs)
{
    return {"experiment",    "run",  "--design=switchback",
            "--arm-a=ARQ",   "--arm-b=Unmanaged",
            "--nodes=2",     "--blocks=2",
            "--block-epochs=4",
            "--resamples=50", "--lc=2",
            "--be=1",        "--tenants=8",
            "--seed",        "7",
            "--jobs",        jobs,
            "--trace",       trace};
}

TEST(ExperimentCli, TraceBytesIdenticalAcrossJobs)
{
    std::vector<std::string> traces;
    std::vector<std::string> stdouts;
    for (const std::string jobs : {"1", "4", "16"}) {
        const std::string path =
            "/tmp/ahq_exp_jobs" + jobs + ".jsonl";
        std::ostringstream out, err;
        ASSERT_EQ(dispatch(runArgs(path, jobs), out, err), 0)
            << err.str();
        traces.push_back(slurp(path));
        // Strip the final "trace written to <path>" line: the path
        // embeds the jobs value, and everything above it (the
        // estimate table, CIs, verdict) must agree byte for byte.
        std::string text = out.str();
        const auto cut = text.rfind("trace written to ");
        ASSERT_NE(cut, std::string::npos) << text;
        stdouts.push_back(text.substr(0, cut));
        std::remove(path.c_str());
    }
    ASSERT_FALSE(traces[0].empty());
    EXPECT_EQ(traces[0], traces[1]);
    EXPECT_EQ(traces[0], traces[2]);
    EXPECT_EQ(stdouts[0], stdouts[1]);
    EXPECT_EQ(stdouts[0], stdouts[2]);
}

TEST(ExperimentCli, AnalyzeAndVerdictRoundTripThroughTrace)
{
    const std::string path = "/tmp/ahq_exp_roundtrip.jsonl";
    std::ostringstream out, err;
    ASSERT_EQ(dispatch(runArgs(path, "2"), out, err), 0)
        << err.str();
    const std::string run_out = out.str();

    // `verdict` prints exactly the one-line outcome, and it is the
    // same verdict the run printed.
    std::ostringstream vout, verr;
    ASSERT_EQ(dispatch({"experiment", "verdict", path}, vout, verr),
              0)
        << verr.str();
    std::string verdict = vout.str();
    ASSERT_FALSE(verdict.empty());
    verdict.pop_back(); // trailing newline
    EXPECT_NE(run_out.find("verdict: " + verdict),
              std::string::npos)
        << run_out;

    // `analyze` re-estimates from the trace; the estimate table it
    // prints appears in the run output verbatim (same blocks, same
    // estimator seed).
    std::ostringstream aout, aerr;
    ASSERT_EQ(dispatch({"experiment", "analyze", path}, aout, aerr),
              0)
        << aerr.str();
    const std::string analyze_out = aout.str();
    EXPECT_NE(analyze_out.find("verdict: " + verdict),
              std::string::npos);

    std::remove(path.c_str());
}

TEST(ExperimentCli, DesignVerbIsAPureFunctionOfSeed)
{
    const std::vector<std::string> args = {
        "experiment", "design",       "--design=switchback",
        "--nodes=3",  "--blocks=6",   "--seed", "11"};
    std::ostringstream a, b, err;
    ASSERT_EQ(dispatch(args, a, err), 0) << err.str();
    ASSERT_EQ(dispatch(args, b, err), 0) << err.str();
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("switchback"), std::string::npos);
}

TEST(ExperimentCli, RejectsMalformedInvocations)
{
    std::ostringstream out, err;
    // Unknown design kind.
    EXPECT_EQ(dispatch({"experiment", "design",
                        "--design=crossover"},
                       out, err),
              2);
    // Odd switchback block count cannot balance.
    EXPECT_EQ(dispatch({"experiment", "design", "--blocks=5"}, out,
                       err),
              2);
    // Unknown scheduler arm.
    EXPECT_EQ(dispatch({"experiment", "design", "--arm-a=Bogus"},
                       out, err),
              2);
    // App specs belong to simulate, not experiment.
    EXPECT_EQ(dispatch({"experiment", "run", "xapian=0.5"}, out,
                       err),
              2);
    // Unknown verb.
    EXPECT_EQ(dispatch({"experiment", "frobnicate"}, out, err), 2);
}

TEST(ExperimentCli, ProfileHonouredWithTracesIdenticalAcrossJobs)
{
    std::vector<std::string> traces;
    for (const std::string jobs : {"1", "4"}) {
        const std::string path =
            "/tmp/ahq_exp_prof_j" + jobs + ".jsonl";
        auto args = runArgs(path, jobs);
        args.push_back("--profile");
        std::ostringstream out, err;
        ASSERT_EQ(dispatch(args, out, err), 0) << err.str();
        EXPECT_NE(out.str().find("profile (span tree"),
                  std::string::npos)
            << out.str();
        traces.push_back(slurp(path));
        std::remove(path.c_str());
    }
    EXPECT_NE(traces[0].find("\"type\":\"span\""), std::string::npos);
    EXPECT_EQ(traces[0].find("total_ms"), std::string::npos);
    EXPECT_EQ(traces[0], traces[1]);
}

TEST(ExperimentCli, CsvRejected)
{
    auto args = runArgs("/tmp/ahq_exp_csv_unused.jsonl", "1");
    args.insert(args.end(), {"--csv", "/tmp/ahq_exp_unused.csv"});
    std::ostringstream out, err;
    EXPECT_EQ(dispatch(args, out, err), 2);
    EXPECT_NE(err.str().find("--csv"), std::string::npos) << err.str();
}

} // namespace
