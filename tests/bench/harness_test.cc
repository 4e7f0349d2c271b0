/**
 * @file
 * Tests for the bench timing harness (bench/common): the order the
 * sampler calls its variants in, what a sample spans, when the
 * rounds stop and what a row's best is — structure only, never
 * speed. Also the machine fingerprint on BENCH rows.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common.hh"
#include "obs/trace_reader.hh"

namespace
{

using namespace ahq::bench;

void
sleepFor(double seconds)
{
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds));
}

TEST(Sampler, VariantsAreCalledRoundRobin)
{
    // Each call outlasts the sample minimum, so every call is one
    // sample and the call log is the order samples were taken in.
    std::vector<int> log;
    std::vector<std::function<void()>> variants;
    for (int i = 0; i < 3; ++i) {
        variants.push_back([&log, i] {
            log.push_back(i);
            sleepFor(kSampleSeconds * 1.1);
        });
    }
    const auto timings = sampleInterleaved(variants);
    ASSERT_EQ(timings.size(), 3u);
    const std::size_t rounds = timings[0].samples.size();
    EXPECT_GE(rounds, 2u);
    ASSERT_EQ(log.size(), 3 * rounds);
    for (std::size_t k = 0; k < log.size(); ++k)
        EXPECT_EQ(log[k], static_cast<int>(k % 3)) << "call " << k;
    for (const Timing &t : timings) {
        EXPECT_EQ(t.samples.size(), rounds);
        for (const Sample &s : t.samples)
            EXPECT_EQ(s.calls, 1);
    }
}

TEST(Sampler, EverySampleCallsAtLeastOnceForTheMinimumWall)
{
    long fast_calls = 0;
    const auto timings = sampleInterleaved(
        {[&] { ++fast_calls; }, [] { sleepFor(0.003); }});
    ASSERT_EQ(timings.size(), 2u);
    long counted = 0;
    for (const Timing &t : timings) {
        double spent = 0.0;
        for (const Sample &s : t.samples) {
            EXPECT_GE(s.calls, 1);
            EXPECT_GE(s.seconds, kSampleSeconds);
            spent += s.seconds;
        }
        // Rounds stop only once every variant used its budget.
        EXPECT_GE(spent, kVariantBudgetSeconds);
    }
    for (const Sample &s : timings[0].samples) {
        EXPECT_GT(s.calls, 1); // a trivial call repeats in a sample
        counted += s.calls;
    }
    EXPECT_EQ(counted, fast_calls);
}

TEST(Sampler, ACallSlowerThanTheBudgetGetsExactlyOneSample)
{
    int calls = 0;
    const auto timings = sampleInterleaved({[&] {
        ++calls;
        sleepFor(kVariantBudgetSeconds * 1.1);
    }});
    ASSERT_EQ(timings.size(), 1u);
    ASSERT_EQ(timings[0].samples.size(), 1u);
    EXPECT_EQ(timings[0].samples[0].calls, 1);
    EXPECT_EQ(calls, 1);
}

TEST(Sampler, BestIsAtMostEverySample)
{
    // Calls of uneven length, so the samples differ.
    int k = 0;
    const auto timings =
        sampleInterleaved({[&] { sleepFor(0.001 * (1 + k++ % 3)); }});
    ASSERT_EQ(timings.size(), 1u);
    const Timing &t = timings[0];
    ASSERT_FALSE(t.samples.empty());
    bool attained = false;
    for (const Sample &s : t.samples) {
        const double per_call = s.seconds / static_cast<double>(s.calls);
        EXPECT_LE(t.best(), per_call);
        attained = attained || t.best() == per_call;
    }
    EXPECT_TRUE(attained);
}

TEST(BenchJson, RowsCarryTheMachineFingerprint)
{
    const std::string path =
        testing::TempDir() + "ahq_bench_fingerprint.json";
    {
        BenchArgs args;
        args.json = true;
        args.jsonPath = path;
        BenchJsonWriter json(args);
        json.add("row", 1.5, 40.0, "epochs/s", "c");
    }
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    const auto ev = ahq::obs::parseTraceLine(line);
    EXPECT_EQ(ev.str("benchmark"), "row");
    const std::string fp = ev.str("fingerprint");
    EXPECT_EQ(fp, machineFingerprint());
    EXPECT_EQ(fp.rfind("cpu=", 0), 0u) << fp;
    EXPECT_NE(fp.find(" nproc="), std::string::npos) << fp;
    EXPECT_NE(fp.find(" build="), std::string::npos) << fp;
    std::remove(path.c_str());
}

} // namespace
