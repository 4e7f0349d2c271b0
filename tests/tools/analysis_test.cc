/**
 * @file
 * Tests for the analysis subcommands riding the span profiler:
 * `ahq profile` (tree output, epoch-count consistency, no partial
 * output on malformed traces), `ahq report` (JSON and Markdown),
 * `ahq bench-diff` (regression gate), sweep --profile trace
 * byte-identity across --jobs, and the --profile flag plumbing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli.hh"
#include "obs/trace_reader.hh"

namespace
{

using namespace ahq::cli;

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "ahq_analysis_" + name;
}

/** dispatch() wrapper collecting stdout/stderr. */
struct CliResult
{
    int code;
    std::string out;
    std::string err;
};

CliResult
run(const std::vector<std::string> &argv)
{
    std::ostringstream out, err;
    const int code = dispatch(argv, out, err);
    return {code, out.str(), err.str()};
}

TEST(CliParse, ProfileFlag)
{
    EXPECT_FALSE(
        parseSimulateArgs({"xapian=0.5", "stream"}).profile);
    EXPECT_TRUE(parseSimulateArgs(
                    {"--profile", "xapian=0.5", "stream"})
                    .profile);
    // --profile takes no value.
    EXPECT_THROW((void)parseSimulateArgs(
                     {"--profile=yes", "xapian=0.5"}),
                 std::invalid_argument);
}

TEST(Profile, TreeCountsMatchTheSimulatedEpochs)
{
    const std::string trace = tmpPath("prof.jsonl");
    const auto sim = run({"simulate", "--duration", "5",
                          "--warmup", "0", "--profile", "--trace",
                          trace, "xapian=0.5", "stream"});
    ASSERT_EQ(sim.code, 0) << sim.err;
    // The console summary contains the tree.
    EXPECT_NE(sim.out.find("profile (span tree):"),
              std::string::npos);

    // duration 5 s at the default 0.5 s epoch = 10 epochs.
    const auto prof = run({"profile", trace});
    ASSERT_EQ(prof.code, 0) << prof.err;
    EXPECT_NE(prof.out.find("scenario ARQ"), std::string::npos);

    // Cross-check the span events directly: run count 1, epoch
    // count == the run's epoch count, child totals <= parent.
    long long epochs = 0;
    double run_total = -1.0, epoch_total = -1.0;
    long long epoch_count = -1, run_count = -1;
    ahq::obs::forEachTraceFile(
        trace, [&](const ahq::obs::TraceEvent &ev, int) {
            if (ev.type() == "epoch")
                ++epochs;
            if (ev.type() != "span")
                return;
            if (ev.str("path") == "run") {
                run_count =
                    static_cast<long long>(ev.num("count"));
                run_total = ev.num("total_ms");
            } else if (ev.str("path") == "run/epoch") {
                epoch_count =
                    static_cast<long long>(ev.num("count"));
                epoch_total = ev.num("total_ms");
            }
        });
    EXPECT_EQ(epochs, 10);
    EXPECT_EQ(run_count, 1);
    EXPECT_EQ(epoch_count, epochs);
    ASSERT_GE(run_total, 0.0); // simulate --profile -> wallClock
    EXPECT_LE(epoch_total, run_total);
    std::remove(trace.c_str());
}

TEST(Profile, MalformedTraceExitsOneWithLineNumberAndNoTable)
{
    const std::string trace = tmpPath("malformed.jsonl");
    {
        std::ofstream f(trace);
        f << "{\"v\":1,\"type\":\"span\",\"scenario\":\"s\","
             "\"path\":\"run\",\"name\":\"run\",\"depth\":0,"
             "\"count\":1}\n";
        f << "{\"v\":1,\"type\":\"span\",\"truncat\n";
    }
    const auto res = run({"profile", trace});
    EXPECT_EQ(res.code, 1);
    EXPECT_NE(res.err.find("line 2"), std::string::npos)
        << res.err;
    // No partial summary on stdout.
    EXPECT_TRUE(res.out.empty()) << res.out;
    std::remove(trace.c_str());
}

TEST(Profile, UsageAndUnsupportedInputs)
{
    EXPECT_EQ(run({"profile"}).code, 2);
    EXPECT_EQ(run({"profile", "/nonexistent/x.jsonl"}).code, 1);

    // A trace without span events is a loud error, not an empty
    // table.
    const std::string trace = tmpPath("nospans.jsonl");
    {
        std::ofstream f(trace);
        f << "{\"v\":1,\"type\":\"epoch\",\"scenario\":\"s\","
             "\"e_s\":0.5}\n";
    }
    const auto res = run({"profile", trace});
    EXPECT_EQ(res.code, 1);
    EXPECT_NE(res.err.find("no span events"), std::string::npos);
    std::remove(trace.c_str());
}

TEST(Trace, MalformedTraceExitsOneWithLineNumberAndNoOutput)
{
    const std::string trace = tmpPath("trace_bad.jsonl");
    {
        std::ofstream f(trace);
        f << "{\"v\":1,\"type\":\"epoch\",\"scenario\":\"s\","
             "\"e_s\":0.1}\n";
        f << "not json at all\n";
    }
    const auto res = run({"trace", trace});
    EXPECT_EQ(res.code, 1);
    EXPECT_NE(res.err.find("line 2"), std::string::npos)
        << res.err;
    EXPECT_TRUE(res.out.empty()) << res.out;
    std::remove(trace.c_str());
}

TEST(Sweep, ProfiledTracesAreByteIdenticalAcrossJobs)
{
    const std::string t1 = tmpPath("sweep_j1.jsonl");
    const std::string t4 = tmpPath("sweep_j4.jsonl");
    const std::vector<std::string> base{
        "sweep", "--duration", "2", "--warmup", "0", "--profile",
        "xapian=0.5", "stream"};
    auto with = [&](const std::string &trace,
                    const std::string &jobs) {
        auto argv = base;
        argv.insert(argv.begin() + 1, {"--trace", trace, "--jobs",
                                       jobs});
        return run(argv);
    };
    ASSERT_EQ(with(t1, "1").code, 0);
    ASSERT_EQ(with(t4, "4").code, 0);

    std::ifstream f1(t1), f4(t4);
    const std::string c1((std::istreambuf_iterator<char>(f1)),
                         std::istreambuf_iterator<char>());
    const std::string c4((std::istreambuf_iterator<char>(f4)),
                         std::istreambuf_iterator<char>());
    EXPECT_FALSE(c1.empty());
    EXPECT_EQ(c1, c4);
    // Spans present, timing fields absent (wallClock off).
    EXPECT_NE(c1.find("\"type\":\"span\""), std::string::npos);
    EXPECT_EQ(c1.find("total_ms"), std::string::npos);
    std::remove(t1.c_str());
    std::remove(t4.c_str());
}

TEST(Report, FoldsTracesAndBenchFilesIntoJsonAndMarkdown)
{
    const std::string trace = tmpPath("report_trace.jsonl");
    const auto sim = run({"simulate", "--duration", "3",
                          "--warmup", "0", "--profile", "--trace",
                          trace, "xapian=0.5", "stream"});
    ASSERT_EQ(sim.code, 0) << sim.err;

    const std::string benchf = tmpPath("BENCH_x.json");
    {
        std::ofstream f(benchf);
        f << "{\"type\":\"bench\",\"benchmark\":\"b1\","
             "\"wall_ms\":10,\"throughput\":100,"
             "\"unit\":\"eps\",\"config\":\"c\","
             "\"git_rev\":\"r\"}\n";
    }

    const auto js = run({"report", trace, benchf});
    ASSERT_EQ(js.code, 0) << js.err;
    // The JSON report names the tool and carries both sections.
    // (It nests objects, so the flat trace parser can't read it.)
    EXPECT_NE(js.out.find("\"tool\":\"ahq report\""),
              std::string::npos)
        << js.out;
    EXPECT_NE(js.out.find("\"runs\":["), std::string::npos);
    EXPECT_NE(js.out.find("\"bench\":["), std::string::npos);
    EXPECT_NE(js.out.find("\"b1\""), std::string::npos);

    const auto md = run({"report", "--format=md", trace, benchf});
    ASSERT_EQ(md.code, 0) << md.err;
    EXPECT_NE(md.out.find("## Runs"), std::string::npos);
    EXPECT_NE(md.out.find("## Benchmarks"), std::string::npos);
    EXPECT_NE(md.out.find("b1"), std::string::npos);

    // -o FILE writes the report instead of stdout.
    const std::string outf = tmpPath("report.json");
    const auto filed =
        run({"report", "-o", outf, trace, benchf});
    ASSERT_EQ(filed.code, 0) << filed.err;
    std::ifstream f(outf);
    EXPECT_TRUE(f.is_open());

    EXPECT_EQ(run({"report"}).code, 2);
    EXPECT_EQ(run({"report", "--format=xml", trace}).code, 2);
    EXPECT_EQ(run({"report", "/nonexistent/x.jsonl"}).code, 1);

    std::remove(trace.c_str());
    std::remove(benchf.c_str());
    std::remove(outf.c_str());
}

TEST(BenchDiff, FlagsRegressionsBeyondThreshold)
{
    const std::string oldf = tmpPath("BENCH_old.json");
    const std::string newf = tmpPath("BENCH_new.json");
    auto write = [](const std::string &path, double wall,
                    double thru) {
        std::ofstream f(path);
        f << "{\"type\":\"bench\",\"benchmark\":\"b\","
             "\"wall_ms\":"
          << wall << ",\"throughput\":" << thru
          << ",\"unit\":\"eps\",\"config\":\"c\","
             "\"git_rev\":\"r\"}\n";
    };

    // Identical -> clean exit.
    write(oldf, 100.0, 1000.0);
    write(newf, 100.0, 1000.0);
    EXPECT_EQ(run({"bench-diff", oldf, newf}).code, 0);

    // 25% slower -> regression, exit 1, row flagged.
    write(newf, 125.0, 1000.0);
    const auto slow = run({"bench-diff", oldf, newf});
    EXPECT_EQ(slow.code, 1);
    EXPECT_NE(slow.out.find("REGRESSION"), std::string::npos);

    // The same delta passes a 30% threshold.
    EXPECT_EQ(
        run({"bench-diff", "--threshold=0.3", oldf, newf}).code,
        0);

    // Throughput drop alone is also a regression.
    write(newf, 100.0, 800.0);
    EXPECT_EQ(run({"bench-diff", oldf, newf}).code, 1);

    // Usage / parse errors exit 2.
    EXPECT_EQ(run({"bench-diff", oldf}).code, 2);
    EXPECT_EQ(run({"bench-diff", "--threshold=zz", oldf, newf})
                  .code,
              2);
    EXPECT_EQ(
        run({"bench-diff", oldf, "/nonexistent/b.json"}).code, 2);

    std::remove(oldf.c_str());
    std::remove(newf.c_str());
}

TEST(BenchDiff, ReportsSpeedupsAndBaselineSelection)
{
    const std::string oldf = tmpPath("BENCH_base.json");
    const std::string newf = tmpPath("BENCH_run.json");
    auto write = [](const std::string &path, double wall,
                    double thru) {
        std::ofstream f(path);
        f << "{\"type\":\"bench\",\"benchmark\":\"b\","
             "\"wall_ms\":"
          << wall << ",\"throughput\":" << thru
          << ",\"unit\":\"eps\",\"config\":\"c\","
             "\"git_rev\":\"r\"}\n";
    };

    // 2x throughput -> a per-row speedup ratio plus the geomean
    // footer, and still a clean exit.
    write(oldf, 100.0, 1000.0);
    write(newf, 50.0, 2000.0);
    const auto fast = run({"bench-diff", oldf, newf});
    EXPECT_EQ(fast.code, 0) << fast.err;
    EXPECT_NE(fast.out.find("2.00x"), std::string::npos)
        << fast.out;
    EXPECT_NE(fast.out.find("geomean speedup"), std::string::npos)
        << fast.out;

    // --baseline <old> plus one positional is the same comparison.
    const auto sel = run({"bench-diff", "--baseline", oldf, newf});
    EXPECT_EQ(sel.code, 0) << sel.err;
    EXPECT_EQ(sel.out, fast.out);
    const auto eq =
        run({"bench-diff", "--baseline=" + oldf, newf});
    EXPECT_EQ(eq.out, fast.out);

    // A regression under --baseline still gates (exit 1).
    write(newf, 200.0, 500.0);
    EXPECT_EQ(run({"bench-diff", "--baseline", oldf, newf}).code,
              1);

    // --baseline with two positionals is ambiguous -> usage error.
    EXPECT_EQ(
        run({"bench-diff", "--baseline", oldf, oldf, newf}).code,
        2);
    EXPECT_EQ(run({"bench-diff", "--baseline"}).code, 2);

    std::remove(oldf.c_str());
    std::remove(newf.c_str());
}

TEST(BenchDiff, NamesBothFingerprintsWhenTheyDiffer)
{
    const std::string oldf = tmpPath("BENCH_fp_base.json");
    const std::string newf = tmpPath("BENCH_fp_run.json");
    auto write = [](const std::string &path, double wall,
                    const std::string &fingerprint) {
        std::ofstream f(path);
        f << "{\"type\":\"bench\",\"benchmark\":\"b\","
             "\"wall_ms\":"
          << wall
          << ",\"throughput\":0,\"unit\":\"eps\",\"config\":\"c\","
             "\"git_rev\":\"r\"";
        if (!fingerprint.empty())
            f << ",\"fingerprint\":\"" << fingerprint << "\"";
        f << "}\n";
    };
    auto lines = [](const std::string &out) {
        std::size_t n = 0;
        for (auto at = out.find("fingerprint:");
             at != std::string::npos;
             at = out.find("fingerprint:", at + 1))
            ++n;
        return n;
    };
    const std::string a = "cpu=Xeon A nproc=4 build=Release";
    const std::string b = "cpu=Xeon B nproc=8 build=Release";

    // Neither side has one, or both carry the same: no line.
    write(oldf, 100.0, "");
    write(newf, 100.0, "");
    EXPECT_EQ(lines(run({"bench-diff", oldf, newf}).out), 0u);
    write(oldf, 100.0, a);
    write(newf, 100.0, a);
    EXPECT_EQ(lines(run({"bench-diff", oldf, newf}).out), 0u);

    // Different machines: one line naming both, first, and the
    // exit code still only reflects the numbers.
    write(newf, 100.0, b);
    const auto differ = run({"bench-diff", "--baseline", oldf, newf});
    EXPECT_EQ(differ.code, 0) << differ.err;
    EXPECT_EQ(differ.out.rfind("fingerprint: baseline \"" + a +
                                   "\" vs new \"" + b + "\"\n",
                               0),
              0u)
        << differ.out;
    EXPECT_EQ(lines(differ.out), 1u);
    write(newf, 200.0, b);
    EXPECT_EQ(run({"bench-diff", oldf, newf}).code, 1);

    // A baseline without a fingerprint counts as different.
    write(oldf, 100.0, "");
    write(newf, 100.0, b);
    const auto bare = run({"bench-diff", oldf, newf});
    EXPECT_EQ(bare.code, 0);
    EXPECT_NE(bare.out.find("fingerprint: baseline (none) vs new \"" +
                            b + "\"\n"),
              std::string::npos)
        << bare.out;
    EXPECT_EQ(lines(bare.out), 1u);

    std::remove(oldf.c_str());
    std::remove(newf.c_str());
}

TEST(CliParse, TraceSampleFlag)
{
    EXPECT_DOUBLE_EQ(parseSimulateArgs({"xapian=0.5", "stream"})
                         .traceSampleRate,
                     1.0);
    EXPECT_DOUBLE_EQ(
        parseSimulateArgs(
            {"--trace-sample", "0.25", "xapian=0.5", "stream"})
            .traceSampleRate,
        0.25);
    EXPECT_DOUBLE_EQ(parseSimulateArgs({"--trace-sample=0.5",
                                        "xapian=0.5", "stream"})
                         .traceSampleRate,
                     0.5);
    // The rate is a probability: out-of-range values are rejected
    // at parse time, not clamped.
    EXPECT_THROW((void)parseSimulateArgs({"--trace-sample", "1.5",
                                          "xapian=0.5", "stream"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parseSimulateArgs({"--trace-sample", "-0.1",
                                          "xapian=0.5", "stream"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parseSimulateArgs({"--trace-sample", "zz",
                                          "xapian=0.5", "stream"}),
                 std::invalid_argument);
}

TEST(Timeline, RendersSparklinesCsvAndJsonFromATracedRun)
{
    const std::string trace = tmpPath("timeline.jsonl");
    const auto sim = run({"simulate", "--duration", "5",
                          "--warmup", "0", "--trace", trace,
                          "xapian=0.5", "stream"});
    ASSERT_EQ(sim.code, 0) << sim.err;

    // Text mode: per-(scenario, series) blocks with a stats line
    // and an aligned sparkline between pipes.
    const auto text = run({"timeline", trace});
    ASSERT_EQ(text.code, 0) << text.err;
    EXPECT_NE(text.out.find("ARQ :: e_s"), std::string::npos)
        << text.out;
    EXPECT_NE(text.out.find("p99="), std::string::npos);
    EXPECT_NE(text.out.find("  |"), std::string::npos);

    // --series filters down to the named series only.
    const auto only =
        run({"timeline", "--series", "e_s", trace});
    ASSERT_EQ(only.code, 0) << only.err;
    EXPECT_NE(only.out.find(":: e_s"), std::string::npos);
    EXPECT_EQ(only.out.find(":: e_lc"), std::string::npos)
        << only.out;

    const auto csv = run({"timeline", "--format=csv", trace});
    ASSERT_EQ(csv.code, 0) << csv.err;
    EXPECT_EQ(csv.out.rfind("scenario,series,bucket,epoch_lo,"
                            "stride,count,min,max,mean\n",
                            0),
              0u)
        << csv.out;
    EXPECT_NE(csv.out.find("ARQ,e_s,0,0,"), std::string::npos)
        << csv.out;

    const auto js = run({"timeline", "--format=json", trace});
    ASSERT_EQ(js.code, 0) << js.err;
    EXPECT_EQ(js.out.rfind("{\"v\":1,\"series\":[", 0), 0u)
        << js.out;
    EXPECT_NE(js.out.find("\"series\":\"e_s\""),
              std::string::npos);
    EXPECT_NE(js.out.find("\"markers\":["), std::string::npos);
    std::remove(trace.c_str());
}

TEST(Timeline, ChaosTimelineByteIdenticalAcrossJobsUnderSampling)
{
    const std::string t1 = tmpPath("chaos_tl_j1.jsonl");
    const std::string t8 = tmpPath("chaos_tl_j8.jsonl");
    auto with = [&](const std::string &trace,
                    const std::string &jobs) {
        return run({"chaos", "--duration", "10", "--warmup", "2",
                    "--seed", "5", "--trace-sample", "0.5",
                    "--trace", trace, "--jobs", jobs});
    };
    const auto r1 = with(t1, "1");
    ASSERT_EQ(r1.code, 0) << r1.err;
    const auto r8 = with(t8, "8");
    ASSERT_EQ(r8.code, 0) << r8.err;

    std::ifstream f1(t1), f8(t8);
    const std::string c1((std::istreambuf_iterator<char>(f1)),
                         std::istreambuf_iterator<char>());
    const std::string c8((std::istreambuf_iterator<char>(f8)),
                         std::istreambuf_iterator<char>());
    ASSERT_FALSE(c1.empty());
    EXPECT_EQ(c1, c8);
    // Sampling is advertised in the header and the folded series
    // (recorded every epoch, never sampled) close the trace.
    EXPECT_NE(c1.find("\"trace_sample\":0.5"), std::string::npos);
    EXPECT_NE(c1.find("\"type\":\"series\""), std::string::npos);

    // Rendering the two traces gives the same bytes, with the
    // chaos plan's faults showing up in the marker row.
    const auto tl1 = run({"timeline", t1});
    const auto tl8 = run({"timeline", t8});
    ASSERT_EQ(tl1.code, 0) << tl1.err;
    // The first line names the input file; everything after it
    // must match byte for byte.
    const auto body = [](const std::string &s) {
        return s.substr(s.find('\n'));
    };
    EXPECT_EQ(body(tl1.out), body(tl8.out));
    EXPECT_NE(tl1.out.find("x=fault"), std::string::npos)
        << tl1.out;
    std::remove(t1.c_str());
    std::remove(t8.c_str());
}

TEST(Timeline, UsageAndErrorPaths)
{
    EXPECT_EQ(run({"timeline"}).code, 2);
    EXPECT_EQ(run({"timeline", "--format=xml", "x.jsonl"}).code,
              2);
    EXPECT_EQ(run({"timeline", "--width=4", "x.jsonl"}).code, 2);
    EXPECT_EQ(run({"timeline", "/nonexistent/x.jsonl"}).code, 1);

    // A trace without series events is a loud error with a hint,
    // not an empty rendering.
    const std::string trace = tmpPath("noseries.jsonl");
    {
        std::ofstream f(trace);
        f << "{\"v\":1,\"type\":\"epoch\",\"scenario\":\"s\","
             "\"e_s\":0.5}\n";
    }
    const auto res = run({"timeline", trace});
    EXPECT_EQ(res.code, 1);
    EXPECT_NE(res.err.find("no matching series"),
              std::string::npos)
        << res.err;
    std::remove(trace.c_str());
}

TEST(Report, FoldsSeriesEventsIntoEsColumns)
{
    const std::string trace = tmpPath("report_series.jsonl");
    const auto sim = run({"simulate", "--duration", "4",
                          "--warmup", "0", "--trace", trace,
                          "xapian=0.5", "stream"});
    ASSERT_EQ(sim.code, 0) << sim.err;

    const auto js = run({"report", trace});
    ASSERT_EQ(js.code, 0) << js.err;
    EXPECT_NE(js.out.find("\"es_min\":"), std::string::npos)
        << js.out;
    EXPECT_NE(js.out.find("\"es_max\":"), std::string::npos);
    EXPECT_NE(js.out.find("\"es_p99\":"), std::string::npos);

    const auto md = run({"report", "--format=md", trace});
    ASSERT_EQ(md.code, 0) << md.err;
    EXPECT_NE(md.out.find("E_S p99"), std::string::npos) << md.out;
    std::remove(trace.c_str());
}

/** A file holding `text`, at tmpPath(name). */
std::string
writeTrace(const std::string &name, const std::string &text)
{
    const std::string path = tmpPath(name);
    std::ofstream(path) << text;
    return path;
}

TEST(TraceFold, EveryReaderRejectsAnUnknownSchemaVersion)
{
    const std::string trace = writeTrace(
        "v99.jsonl",
        "{\"v\":99,\"type\":\"experiment_block\",\"scenario\":\"exp\","
        "\"node\":0,\"block\":0,\"arm\":0,\"epochs\":4,\"mean_es\":0.1}\n");
    const std::vector<std::vector<std::string>> verbs{
        {"trace", trace},
        {"profile", trace},
        {"timeline", trace},
        {"why", trace},
        {"alerts", trace},
        {"report", trace},
        {"experiment", "analyze", trace},
        {"experiment", "verdict", trace},
    };
    for (const auto &argv : verbs) {
        const auto res = run(argv);
        EXPECT_EQ(res.code, 1) << argv[0] << ": " << res.out;
        EXPECT_NE(res.err.find("line 1: unsupported schema version 99 "
                               "(this build reads v1)"),
                  std::string::npos)
            << argv[0] << ": " << res.err;
        EXPECT_TRUE(res.out.empty()) << argv[0] << ": " << res.out;
    }
    // Bench rows carry no header, so report still reads them.
    const std::string bench = writeTrace(
        "BENCH_v.json", "{\"type\":\"bench\",\"benchmark\":\"b\","
                        "\"wall_ms\":1,\"throughput\":2}\n");
    EXPECT_EQ(run({"report", bench}).code, 0);
    std::remove(trace.c_str());
    std::remove(bench.c_str());
}

TEST(TraceFold, ExperimentBadInputExitsOneLikeEveryReader)
{
    const std::string bad = writeTrace(
        "exp_bad.jsonl", "{\"v\":1,\"type\":\"experiment_start\"}\n"
                         "{\"v\":1,\"type\":\"experiment_blo\n");
    for (const std::string verb : {"analyze", "verdict"}) {
        const auto missing =
            run({"experiment", verb, tmpPath("no_such.jsonl")});
        EXPECT_EQ(missing.code, 1) << verb;
        EXPECT_NE(missing.err.find("cannot open"), std::string::npos)
            << missing.err;
        EXPECT_EQ(missing.code, run({"why", tmpPath("no_such.jsonl")}).code);

        const auto malformed = run({"experiment", verb, bad});
        EXPECT_EQ(malformed.code, 1) << verb;
        EXPECT_NE(malformed.err.find("line 2"), std::string::npos)
            << malformed.err;
        EXPECT_TRUE(malformed.out.empty()) << malformed.out;
    }
    std::remove(bad.c_str());
}

TEST(TraceFold, TraceAndProfileRefuseFlagsNamingFlagAndVerb)
{
    const auto trace = run({"trace", "--scenario=x", "t.jsonl"});
    EXPECT_EQ(trace.code, 2);
    EXPECT_NE(trace.err.find("trace does not accept --scenario"),
              std::string::npos)
        << trace.err;
    const auto profile = run({"profile", "--format=json", "t.jsonl"});
    EXPECT_EQ(profile.code, 2);
    EXPECT_NE(profile.err.find("profile does not accept --format"),
              std::string::npos)
        << profile.err;
    // Still exactly one path.
    EXPECT_EQ(run({"trace", "a.jsonl", "b.jsonl"}).code, 2);
    EXPECT_EQ(run({"profile", "a.jsonl", "b.jsonl"}).code, 2);
}

TEST(Usage, MentionsTheNewSubcommands)
{
    const auto res = run({"help"});
    EXPECT_EQ(res.code, 0);
    EXPECT_NE(res.out.find("profile <file.jsonl>"),
              std::string::npos);
    EXPECT_NE(res.out.find("report [opts]"), std::string::npos);
    EXPECT_NE(res.out.find("bench-diff"), std::string::npos);
    EXPECT_NE(res.out.find("--profile"), std::string::npos);
    EXPECT_NE(res.out.find("timeline [opts]"), std::string::npos);
    EXPECT_NE(res.out.find("--trace-sample"), std::string::npos);
}

} // namespace
