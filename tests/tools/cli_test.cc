/**
 * @file
 * Tests for the `ahq` CLI parsing and subcommands.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "cli.hh"
#include "cli_test_util.hh"
#include "obs/trace_reader.hh"

namespace
{

using namespace ahq::cli;
using namespace ahq::cli::test_util;

TEST(CliParse, SimulateDefaults)
{
    const auto opt = parseSimulateArgs({"xapian=0.5", "stream"});
    EXPECT_EQ(opt.strategy, "ARQ");
    EXPECT_EQ(opt.durationSeconds, 120.0);
    EXPECT_EQ(opt.cores, 10);
    ASSERT_EQ(opt.lcApps.size(), 1u);
    EXPECT_EQ(opt.lcApps[0].first, "xapian");
    EXPECT_NEAR(opt.lcApps[0].second, 0.5, 1e-12);
    ASSERT_EQ(opt.beApps.size(), 1u);
    EXPECT_EQ(opt.beApps[0], "stream");
}

TEST(CliParse, SimulateAllOptions)
{
    const auto opt = parseSimulateArgs(
        {"--strategy", "PARTIES", "--duration", "30", "--warmup",
         "10", "--cores", "6", "--ways", "12", "--bw", "5",
         "--seed", "7", "--percentile", "0.99", "--csv", "out.csv",
         "moses=0.2", "img-dnn=0.3", "fluidanimate"});
    EXPECT_EQ(opt.strategy, "PARTIES");
    EXPECT_EQ(opt.durationSeconds, 30.0);
    EXPECT_EQ(opt.warmupEpochs, 10);
    EXPECT_EQ(opt.cores, 6);
    EXPECT_EQ(opt.ways, 12);
    EXPECT_EQ(opt.bwUnits, 5);
    EXPECT_EQ(opt.seed, 7u);
    EXPECT_NEAR(opt.percentile, 0.99, 1e-12);
    EXPECT_EQ(opt.csvPath, "out.csv");
    EXPECT_EQ(opt.lcApps.size(), 2u);
    EXPECT_EQ(opt.beApps.size(), 1u);
}

TEST(CliParse, JobsFlag)
{
    const auto opt = parseSimulateArgs(
        {"--jobs", "4", "xapian=0.5", "stream"});
    EXPECT_EQ(opt.jobs, 4);
    EXPECT_EQ(parseSimulateArgs({"xapian=0.5", "stream"}).jobs, 0);
    EXPECT_THROW((void)parseSimulateArgs(
                     {"--jobs", "0", "xapian=0.5"}),
                 std::invalid_argument);
}

TEST(CliParse, Rejections)
{
    EXPECT_THROW((void)parseSimulateArgs({}),
                 std::invalid_argument);
    EXPECT_THROW((void)parseSimulateArgs({"--bogus", "x=1"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parseSimulateArgs({"--duration"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parseSimulateArgs({"xapian=notanumber"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parseSimulateArgs(
                     {"--percentile", "1.5", "x=0.5"}),
                 std::invalid_argument);
}

TEST(CliParse, EqualsSpellingAccepted)
{
    const auto opt = parseSimulateArgs(
        {"--strategy=PARTIES", "--duration=30", "--jobs=4",
         "--ri=0.6", "--check=log", "xapian=0.5"});
    EXPECT_EQ(opt.strategy, "PARTIES");
    EXPECT_EQ(opt.durationSeconds, 30.0);
    EXPECT_EQ(opt.jobs, 4);
    EXPECT_NEAR(opt.ri, 0.6, 1e-12);
    EXPECT_EQ(opt.checkMode, ahq::check::Mode::Log);
}

/** Expects parseSimulateArgs(args) to throw mentioning `needle`. */
void
expectParseError(const std::vector<std::string> &args,
                 const std::string &needle)
{
    try {
        (void)parseSimulateArgs(args);
        FAIL() << "expected invalid_argument for " << needle;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << "error '" << e.what() << "' does not mention "
            << needle;
    }
}

TEST(CliParse, NumericValidationIsActionable)
{
    // Each rejection names the flag and the accepted range.
    expectParseError({"--jobs=0", "xapian=0.5"}, "--jobs must be");
    expectParseError({"--jobs", "-3", "xapian=0.5"},
                     "--jobs must be");
    expectParseError({"--duration", "-5", "xapian=0.5"},
                     "--duration must be a positive");
    expectParseError({"--duration", "0", "xapian=0.5"},
                     "--duration must be a positive");
    expectParseError({"--duration", "inf", "xapian=0.5"},
                     "--duration");
    expectParseError({"--warmup", "-1", "xapian=0.5"},
                     "--warmup must be");
    expectParseError({"--warmup", "2.5", "xapian=0.5"},
                     "expected an integer");
    expectParseError({"--cores", "0", "xapian=0.5"},
                     "--cores must be");
    expectParseError({"--ways=-2", "xapian=0.5"},
                     "--ways must be");
    expectParseError({"--seed", "-1", "xapian=0.5"},
                     "--seed must be");
    expectParseError({"--ri", "1.5", "xapian=0.5"},
                     "--ri must be within [0, 1]");
    expectParseError({"--ri", "-0.1", "xapian=0.5"},
                     "--ri must be within [0, 1]");
    expectParseError({"--ri", "nan", "xapian=0.5"}, "--ri");
    expectParseError({"--check", "yes", "xapian=0.5"}, "check");
    expectParseError({"--metrics=1", "xapian=0.5"},
                     "--metrics does not take a value");
}

TEST(CliSimulate, BadFlagsFailBeforeRunning)
{
    // End-to-end: exit code 2 (usage error) and a flag-naming
    // message on stderr, with no simulation output on stdout.
    for (const auto &args : std::vector<std::vector<std::string>>{
             {"simulate", "--jobs=0", "xapian=0.5"},
             {"simulate", "--duration", "-5", "xapian=0.5"},
             {"simulate", "--warmup", "-1", "xapian=0.5"},
             {"simulate", "--ri", "2", "xapian=0.5"},
             {"sweep", "--jobs", "0", "xapian=0.5"},
             {"oracle", "--waystep", "0", "xapian=0.5"}}) {
        std::ostringstream out, err;
        EXPECT_EQ(dispatch(args, out, err), 2) << args[1];
        EXPECT_NE(err.str().find("error:"), std::string::npos);
        EXPECT_NE(err.str().find("--"), std::string::npos)
            << "error does not name a flag: " << err.str();
        EXPECT_EQ(out.str().find("E_S"), std::string::npos);
    }
}

TEST(CliSimulate, BadAhqJobsFailsBeforeRunning)
{
    // Without --jobs, AHQ_JOBS sets the thread count: anything but a
    // whole number >= 1 is a usage error naming the variable, with
    // nothing run. A given --jobs still wins over it.
    for (const char *bad : {"abc", "4abc", "0", "-2"}) {
        ::setenv("AHQ_JOBS", bad, 1);
        std::ostringstream out, err, out_jobs, err_jobs;
        const int rc = dispatch({"simulate", "--duration", "2",
                                 "--warmup", "0", "xapian=0.5"},
                                out, err);
        const int rc_jobs =
            dispatch({"simulate", "--jobs", "1", "--duration", "2",
                      "--warmup", "0", "xapian=0.5"},
                     out_jobs, err_jobs);
        ::unsetenv("AHQ_JOBS");
        EXPECT_EQ(rc, 2) << bad;
        EXPECT_NE(err.str().find("AHQ_JOBS"), std::string::npos)
            << bad << ": " << err.str();
        EXPECT_EQ(out.str().find("E_S"), std::string::npos) << bad;
        EXPECT_EQ(rc_jobs, 0) << bad << ": " << err_jobs.str();
    }
}

TEST(CliSimulate, RiFlagChangesWeighting)
{
    // Same colocation, RI 1.0 vs 0.0: E_S equals E_LC / E_BE
    // respectively, so the printed values must differ.
    std::ostringstream out_lc, out_be, err;
    ASSERT_EQ(dispatch({"simulate", "--duration", "15", "--warmup",
                        "15", "--ri=1", "xapian=0.8", "stream"},
                       out_lc, err),
              0)
        << err.str();
    ASSERT_EQ(dispatch({"simulate", "--duration", "15", "--warmup",
                        "15", "--ri=0", "xapian=0.8", "stream"},
                       out_be, err),
              0)
        << err.str();
    auto es = [](const std::string &s) {
        const auto at = s.find("E_S = ");
        return s.substr(at, s.find(',', at) - at);
    };
    EXPECT_NE(es(out_lc.str()), es(out_be.str()));
}

TEST(CliSimulate, StrictCheckCleanRun)
{
    std::ostringstream out, err;
    const int rc = dispatch(
        {"simulate", "--duration", "15", "--warmup", "15",
         "--check=strict", "--metrics", "xapian=0.4",
         "fluidanimate"},
        out, err);
    EXPECT_EQ(rc, 0) << err.str();
    // The auditor ran and found nothing.
    EXPECT_EQ(out.str().find("check.violations"),
              std::string::npos);
    EXPECT_NE(out.str().find("E_S"), std::string::npos);
}

TEST(CliChecks, ListsRegistry)
{
    std::ostringstream out, err;
    EXPECT_EQ(dispatch({"checks"}, out, err), 0);
    EXPECT_NE(out.str().find("capacity.conserved"),
              std::string::npos);
    EXPECT_NE(out.str().find("arq.rollback_exact"),
              std::string::npos);
    EXPECT_NE(out.str().find("AHQ_CHECK"), std::string::npos);
}

TEST(CliObservations, ParsesMixedCsv)
{
    const std::string path = "/tmp/ahq_cli_obs.csv";
    {
        std::ofstream out(path);
        out << "kind,name,a,b,c\n";
        out << "# comment line\n";
        out << "lc,xapian,2.77,3.9,4.22\n";
        out << "lc,moses,2.8,16.54,10.53\n";
        out << "be,stream,0.9,0.4\n";
    }
    std::vector<ahq::core::LcObservation> lc;
    std::vector<ahq::core::BeObservation> be;
    parseObservationsCsv(path, lc, be);
    ASSERT_EQ(lc.size(), 2u);
    ASSERT_EQ(be.size(), 1u);
    EXPECT_NEAR(lc[1].actualTailMs, 16.54, 1e-12);
    EXPECT_NEAR(be[0].ipcSolo, 0.9, 1e-12);
    std::remove(path.c_str());
}

TEST(CliObservations, RejectsBadRows)
{
    const std::string path = "/tmp/ahq_cli_bad.csv";
    {
        std::ofstream out(path);
        out << "lc,xapian,2.77\n"; // too few columns
    }
    std::vector<ahq::core::LcObservation> lc;
    std::vector<ahq::core::BeObservation> be;
    EXPECT_THROW(parseObservationsCsv(path, lc, be),
                 std::invalid_argument);
    std::remove(path.c_str());
}

TEST(CliEntropy, EndToEnd)
{
    const std::string path = "/tmp/ahq_cli_e2e.csv";
    {
        std::ofstream out(path);
        out << "lc,moses,2.80,16.54,10.53\n";
        out << "be,fluid,2.63,1.0\n";
    }
    std::ostringstream out, err;
    const int rc = dispatch({"entropy", path}, out, err);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.str().find("E_LC = 0.363"), std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("E_S"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CliSimulate, EndToEnd)
{
    std::ostringstream out, err;
    const int rc = dispatch(
        {"simulate", "--duration", "15", "--warmup", "15",
         "xapian=0.2", "fluidanimate"},
        out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("xapian"), std::string::npos);
    EXPECT_NE(out.str().find("E_S"), std::string::npos);
}

TEST(CliSimulate, UnknownAppFails)
{
    std::ostringstream out, err;
    const int rc =
        dispatch({"simulate", "redis=0.5"}, out, err);
    EXPECT_EQ(rc, 1);
    EXPECT_NE(err.str().find("unknown application"),
              std::string::npos);
}


TEST(CliOracle, EndToEnd)
{
    std::ostringstream out, err;
    const int rc = dispatch(
        {"oracle", "--waystep", "10", "--cores", "6", "--ways",
         "10", "xapian=0.4", "stream"},
        out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("best hybrid partition"),
              std::string::npos);
    EXPECT_NE(out.str().find("sharing value"), std::string::npos);
}


TEST(CliSweep, EndToEnd)
{
    std::ostringstream out, err;
    const int rc = dispatch(
        {"sweep", "--duration", "10", "--warmup", "10",
         "xapian=0", "fluidanimate"},
        out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("E_S by strategy"), std::string::npos);
    EXPECT_NE(out.str().find("90%"), std::string::npos);
}

TEST(CliSweep, NeedsLcApp)
{
    std::ostringstream out, err;
    EXPECT_EQ(dispatch({"sweep", "stream"}, out, err), 2);
}

TEST(CliParse, TraceAndMetricsFlags)
{
    const auto opt = parseSimulateArgs(
        {"--trace", "out.jsonl", "--metrics", "xapian=0.5"});
    EXPECT_EQ(opt.tracePath, "out.jsonl");
    EXPECT_TRUE(opt.dumpMetrics);
    EXPECT_FALSE(
        parseSimulateArgs({"xapian=0.5"}).dumpMetrics);
}

TEST(CliSimulate, TraceAndMetricsEndToEnd)
{
    const std::string trace = "/tmp/ahq_cli_trace.jsonl";
    std::ostringstream out, err;
    const int rc = dispatch(
        {"simulate", "--duration", "15", "--warmup", "15",
         "--trace", trace, "--metrics", "xapian=0.4",
         "fluidanimate"},
        out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("trace written to " + trace),
              std::string::npos);
    EXPECT_NE(out.str().find("counter sim.epochs = 30"),
              std::string::npos)
        << out.str();

    std::vector<ahq::obs::TraceEvent> events;
    ahq::obs::forEachTraceFile(
        trace, [&](const ahq::obs::TraceEvent &ev, int) {
            events.push_back(ev);
        });
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().type(), "run_start");
    EXPECT_EQ(events.front().str("scenario"), "ARQ");
    // The time-series registry flushes after the run, so the
    // trace ends with the folded `series` summaries; run_end
    // still closes the event stream proper.
    EXPECT_EQ(events.back().type(), "series");
    bool saw_run_end = false;
    for (const auto &ev : events) {
        if (ev.type() == "run_end") {
            saw_run_end = true;
        } else if (ev.type() == "series") {
            EXPECT_TRUE(saw_run_end) << "series before run_end";
        }
    }
    EXPECT_TRUE(saw_run_end);
    std::remove(trace.c_str());
}

TEST(CliSimulate, UnwritableTracePathFails)
{
    std::ostringstream out, err;
    const int rc = dispatch(
        {"simulate", "--trace", "/dev/null/nope/trace.jsonl",
         "xapian=0.4"},
        out, err);
    EXPECT_EQ(rc, 1);
    EXPECT_NE(err.str().find("error:"), std::string::npos);
    EXPECT_NE(err.str().find("/dev/null/nope"), std::string::npos)
        << err.str();
}

TEST(CliTrace, SummarisesASimulateTrace)
{
    const std::string trace = "/tmp/ahq_cli_trace_sum.jsonl";
    std::ostringstream sim_out, sim_err;
    ASSERT_EQ(dispatch({"simulate", "--duration", "15", "--warmup",
                        "15", "--trace", trace, "xapian=0.6",
                        "stream"},
                       sim_out, sim_err),
              0)
        << sim_err.str();

    std::ostringstream out, err;
    const int rc = dispatch({"trace", trace}, out, err);
    EXPECT_EQ(rc, 0) << err.str();
    // Header: 30 epochs of 0.5 s over 15 s, schema v1.
    EXPECT_NE(out.str().find("1 scenario(s), 30 epochs (schema v1)"),
              std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("ARQ"), std::string::npos);
    EXPECT_NE(out.str().find("E_S per epoch"), std::string::npos);
    EXPECT_NE(out.str().find("remaining tolerance"),
              std::string::npos);

    // The decision totals agree with the raw event stream.
    int moves = 0, rollbacks = 0;
    ahq::obs::forEachTraceFile(
        trace, [&](const ahq::obs::TraceEvent &ev, int) {
            if (ev.type() != "arq_decision")
                return;
            moves += ev.str("action") == "move";
            rollbacks += ev.str("action") == "rollback";
        });
    EXPECT_NE(out.str().find(std::to_string(moves)),
              std::string::npos);
    EXPECT_NE(out.str().find(std::to_string(rollbacks)),
              std::string::npos);
    std::remove(trace.c_str());
}

TEST(CliTrace, ErrorsAreLoudAndSpecific)
{
    std::ostringstream out, err;
    EXPECT_EQ(dispatch({"trace"}, out, err), 2);

    std::ostringstream err2;
    EXPECT_EQ(dispatch({"trace", "/tmp/ahq_no_such_trace.jsonl"},
                       out, err2),
              1);
    EXPECT_NE(err2.str().find("cannot open"), std::string::npos);

    const std::string empty = "/tmp/ahq_cli_trace_empty.jsonl";
    { std::ofstream f(empty); }
    std::ostringstream err3;
    EXPECT_EQ(dispatch({"trace", empty}, out, err3), 1);
    EXPECT_NE(err3.str().find("empty trace"), std::string::npos);
    std::remove(empty.c_str());

    const std::string bad = "/tmp/ahq_cli_trace_badv.jsonl";
    {
        std::ofstream f(bad);
        f << "{\"v\":99,\"type\":\"run_start\"}\n";
    }
    std::ostringstream err4;
    EXPECT_EQ(dispatch({"trace", bad}, out, err4), 1);
    EXPECT_NE(err4.str().find("unsupported schema version 99"),
              std::string::npos);
    std::remove(bad.c_str());
}

TEST(CliSweep, TraceBytesIdenticalAcrossJobs)
{
    const std::string t1 = "/tmp/ahq_sweep_trace_j1.jsonl";
    const std::string t4 = "/tmp/ahq_sweep_trace_j4.jsonl";
    std::ostringstream out1, err1, out4, err4;
    ASSERT_EQ(dispatch({"sweep", "--duration", "10", "--warmup",
                        "10", "--jobs", "1", "--trace", t1,
                        "xapian=0", "fluidanimate"},
                       out1, err1),
              0)
        << err1.str();
    ASSERT_EQ(dispatch({"sweep", "--duration", "10", "--warmup",
                        "10", "--jobs", "4", "--trace", t4,
                        "xapian=0", "fluidanimate"},
                       out4, err4),
              0)
        << err4.str();

    const std::string a = slurp(t1);
    const std::string b = slurp(t4);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b); // byte-for-byte across thread counts

    // The sweep table itself is identical too.
    EXPECT_EQ(out1.str().substr(0, out1.str().find("trace written")),
              out4.str().substr(0, out4.str().find("trace written")));
    std::remove(t1.c_str());
    std::remove(t4.c_str());
}

TEST(CliParse, FaultsFlag)
{
    const auto opt = parseSimulateArgs(
        {"--faults", "plan.jsonl", "xapian=0.5"});
    EXPECT_EQ(opt.faultsPath, "plan.jsonl");
    EXPECT_EQ(parseSimulateArgs({"--faults=p2.jsonl", "xapian=0.5"})
                  .faultsPath,
              "p2.jsonl");
    EXPECT_TRUE(parseSimulateArgs({"xapian=0.5"}).faultsPath.empty());
    // --check presence is recorded so chaos can default to strict
    // without clobbering an explicit mode.
    EXPECT_TRUE(parseSimulateArgs({"--check=log", "xapian=0.5"})
                    .checkModeExplicit);
    EXPECT_FALSE(parseSimulateArgs({"xapian=0.5"}).checkModeExplicit);
}

TEST(CliSimulate, FaultsEndToEnd)
{
    const std::string plan = "/tmp/ahq_cli_plan.jsonl";
    {
        std::ofstream f(plan);
        f << "{\"fault\":\"measurement\",\"p_drop\":0.2}\n";
    }
    std::ostringstream out, err;
    const int rc = dispatch(
        {"simulate", "--duration", "15", "--warmup", "15",
         "--faults", plan, "--metrics", "xapian=0.4",
         "fluidanimate"},
        out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("fault.measurement_drop"),
              std::string::npos)
        << out.str();
    std::remove(plan.c_str());
}

TEST(CliSimulate, BadFaultPlanFails)
{
    const std::string plan = "/tmp/ahq_cli_badplan.jsonl";
    {
        std::ofstream f(plan);
        f << "{\"fault\":\"quantum\"}\n";
    }
    std::ostringstream out, err;
    EXPECT_EQ(dispatch({"simulate", "--faults", plan, "xapian=0.4"},
                       out, err),
              1);
    EXPECT_NE(err.str().find("error:"), std::string::npos);
    std::remove(plan.c_str());

    std::ostringstream err2;
    EXPECT_EQ(dispatch({"chaos", "--faults",
                        "/tmp/ahq_no_such_plan.jsonl"},
                       out, err2),
              1);
    EXPECT_NE(err2.str().find("error:"), std::string::npos);
}

TEST(CliChaos, EndToEndWithBuiltinPlan)
{
    std::ostringstream out, err;
    const int rc = dispatch(
        {"chaos", "--duration", "10", "--warmup", "4"}, out, err);
    EXPECT_EQ(rc, 0) << err.str();
    // Every strategy ran under the builtin plan with strict checks.
    EXPECT_NE(out.str().find("chaos over"), std::string::npos);
    EXPECT_NE(out.str().find("check=strict"), std::string::npos);
    EXPECT_NE(out.str().find("ARQ"), std::string::npos);
    EXPECT_NE(out.str().find("Heracles"), std::string::npos);
    EXPECT_NE(out.str().find("fault injection"), std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("measurement drops"),
              std::string::npos);
    EXPECT_NE(out.str().find("actuation failures"),
              std::string::npos);
}

TEST(CliChaos, AcceptsExplicitAppsAndPlan)
{
    const std::string plan = "/tmp/ahq_cli_chaos_plan.jsonl";
    {
        std::ofstream f(plan);
        f << "{\"fault\":\"measurement\",\"p_drop\":0.1}\n";
        f << "{\"fault\":\"load_spike\",\"app\":0,\"from_s\":2,"
             "\"until_s\":6,\"factor\":1.5}\n";
    }
    std::ostringstream out, err;
    const int rc = dispatch(
        {"chaos", "--duration", "10", "--warmup", "4", "--faults",
         plan, "xapian=0.5", "stream"},
        out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find(plan), std::string::npos)
        << out.str();
    std::remove(plan.c_str());
}

TEST(CliFleet, EndToEnd)
{
    std::ostringstream out, err;
    const int rc = dispatch({"fleet", "--nodes", "4", "--duration",
                             "6", "--warmup", "4"},
                            out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("fleet: 4 nodes"), std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("peak demand"), std::string::npos);
    EXPECT_NE(out.str().find("E_S ="), std::string::npos);
    EXPECT_NE(out.str().find("nodes/s"), std::string::npos);
}

TEST(CliFleet, RejectsAppSpecs)
{
    std::ostringstream out, err;
    const int rc =
        dispatch({"fleet", "xapian=0.5", "stream"}, out, err);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(err.str().find("load generator"), std::string::npos)
        << err.str();
}

TEST(CliFleet, RebalancePrintsRoundsAndMigrations)
{
    std::ostringstream out, err;
    const int rc = dispatch(
        {"fleet", "--nodes", "4", "--duration", "12", "--warmup",
         "2", "--rebalance-every", "6", "--spread", "0.0001"},
        out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("round"), std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("spread"), std::string::npos);
    EXPECT_NE(out.str().find("migrations ="), std::string::npos);
}

TEST(CliFleet, FaultsFlagIsHonoured)
{
    const std::string bad = "/tmp/ahq_cli_fleet_badplan.jsonl";
    {
        std::ofstream f(bad);
        f << "{\"p_drop\":0.2}\n";
    }
    std::ostringstream out, err;
    EXPECT_EQ(dispatch({"fleet", "--nodes", "2", "--duration", "4",
                        "--warmup", "2", "--faults", bad},
                       out, err),
              1);
    EXPECT_NE(err.str().find(bad + ":1:"), std::string::npos)
        << err.str();
    std::remove(bad.c_str());

    const std::string crash = "/tmp/ahq_cli_fleet_crash.jsonl";
    {
        std::ofstream f(crash);
        f << "{\"fault\":\"node_crash\",\"node\":1,\"at_s\":3}\n";
    }
    std::ostringstream out2, err2;
    EXPECT_EQ(dispatch({"fleet", "--nodes", "3", "--duration", "6",
                        "--warmup", "2", "--faults", crash},
                       out2, err2),
              0)
        << err2.str();
    EXPECT_NE(out2.str().find("crashed: node1 (failovers = "),
              std::string::npos)
        << out2.str();
    std::remove(crash.c_str());
}

TEST(CliFleet, FaultsRejectedWithRebalance)
{
    std::ostringstream out, err;
    EXPECT_EQ(dispatch({"fleet", "--faults", "plan.jsonl",
                        "--rebalance-every", "6"},
                       out, err),
              2);
    EXPECT_NE(err.str().find("--rebalance-every"), std::string::npos)
        << err.str();
}

TEST(CliFleet, ProfileHonouredWithTracesIdenticalAcrossJobs)
{
    const std::string crash = "/tmp/ahq_cli_fleet_prof_crash.jsonl";
    {
        std::ofstream f(crash);
        f << "{\"fault\":\"node_crash\",\"node\":1,\"at_s\":2}\n";
    }
    // Plain Fleet::run, its crash/failover phases, and the
    // ClusterScheduler rounds all carry per-node profilers.
    const std::vector<std::vector<std::string>> modes{
        {},
        {"--faults", crash},
        {"--rebalance-every", "3", "--spread", "0.0001"}};
    for (const auto &mode : modes) {
        std::vector<std::string> traces;
        for (const std::string jobs : {"1", "4"}) {
            const std::string path =
                "/tmp/ahq_cli_fleet_prof_j" + jobs + ".jsonl";
            std::vector<std::string> args{
                "fleet", "--nodes", "3",    "--duration", "6",
                "--warmup", "2",    "--profile", "--trace", path,
                "--jobs",   jobs};
            args.insert(args.end(), mode.begin(), mode.end());
            std::ostringstream out, err;
            ASSERT_EQ(dispatch(args, out, err), 0) << err.str();
            EXPECT_NE(out.str().find("profile (span tree"),
                      std::string::npos)
                << out.str();
            traces.push_back(slurp(path));
            std::remove(path.c_str());
        }
        EXPECT_NE(traces[0].find("\"type\":\"span\""),
                  std::string::npos);
        // Wall clock off: span events carry counts, not times.
        EXPECT_EQ(traces[0].find("total_ms"), std::string::npos);
        EXPECT_EQ(traces[0], traces[1]);
    }
    std::remove(crash.c_str());

    ::setenv("AHQ_PROF", "1", 1);
    std::ostringstream out, err;
    const int rc = dispatch(
        {"fleet", "--nodes", "2", "--duration", "2", "--warmup", "0"},
        out, err);
    ::unsetenv("AHQ_PROF");
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("profile (span tree"), std::string::npos);
}

TEST(CliFleet, CsvRejected)
{
    std::ostringstream out, err;
    EXPECT_EQ(dispatch({"fleet", "--nodes", "2", "--csv", "f.csv"},
                       out, err),
              2);
    EXPECT_NE(err.str().find("--csv"), std::string::npos) << err.str();
}

TEST(CliDispatch, ListsAndUsage)
{
    std::ostringstream out, err;
    EXPECT_EQ(dispatch({"apps"}, out, err), 0);
    EXPECT_NE(out.str().find("xapian"), std::string::npos);
    EXPECT_NE(out.str().find("stream"), std::string::npos);

    std::ostringstream out2;
    EXPECT_EQ(dispatch({"strategies"}, out2, err), 0);
    EXPECT_NE(out2.str().find("ARQ"), std::string::npos);
    EXPECT_NE(out2.str().find("Heracles"), std::string::npos);

    std::ostringstream out3, err3;
    EXPECT_EQ(dispatch({}, out3, err3), 2);
    EXPECT_EQ(dispatch({"frobnicate"}, out3, err3), 2);

    std::ostringstream out4, err4;
    EXPECT_EQ(dispatch({"help"}, out4, err4), 0);
    EXPECT_NE(out4.str().find("usage: ahq"), std::string::npos);
    EXPECT_NE(out4.str().find("oracle"), std::string::npos);
}

} // namespace
