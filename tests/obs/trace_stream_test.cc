/**
 * @file
 * Streaming TraceReader (forEachTrace / forEachTraceFile): a
 * multi-MB synthetic trace is delivered event by event with
 * correct 1-based line numbers, malformed lines stop the stream
 * with a line-numbered error, and the file variant prefixes the
 * path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/trace_reader.hh"

namespace
{

using ahq::obs::forEachTrace;
using ahq::obs::forEachTraceFile;
using ahq::obs::TraceEvent;

/** A synthetic JSONL trace of n events, ~130 bytes per line. */
std::string
syntheticTrace(int n)
{
    std::string out;
    out.reserve(static_cast<std::size_t>(n) * 140);
    for (int i = 0; i < n; ++i) {
        out += "{\"v\":1,\"type\":\"epoch\",\"scenario\":\"synth\","
               "\"epoch\":" +
            std::to_string(i) + ",\"e_s\":0." +
            std::to_string(100000 + i % 899999) +
            ",\"apps\":[1,2,3],\"note\":"
            "\"padding-padding-padding-padding\"}\n";
    }
    return out;
}

TEST(TraceStream, StreamsAMultiMegabyteTraceEventByEvent)
{
    constexpr int kEvents = 40000;
    const std::string text = syntheticTrace(kEvents);
    ASSERT_GT(text.size(), 4u * 1024 * 1024) << "not multi-MB";

    std::istringstream in(text);
    long long seen = 0;
    int last_line = 0;
    forEachTrace(in, [&](const TraceEvent &ev, int line) {
        EXPECT_EQ(ev.num("epoch"), static_cast<double>(seen));
        ++seen;
        last_line = line;
    });
    EXPECT_EQ(seen, kEvents);
    EXPECT_EQ(last_line, kEvents); // 1-based, no blank lines
}

TEST(TraceStream, LineNumbersSkipNothingAndCountBlanks)
{
    std::istringstream in(
        "{\"a\":1}\n\n{\"a\":2}\n\n\n{\"a\":3}\n");
    std::vector<int> lines;
    forEachTrace(in, [&](const TraceEvent &, int line) {
        lines.push_back(line);
    });
    EXPECT_EQ(lines, (std::vector<int>{1, 3, 6}));
}

TEST(TraceStream, MalformedMidFileStopsWithLineNumber)
{
    std::istringstream in(
        "{\"a\":1}\n{\"a\":2}\ngarbage here\n{\"a\":4}\n");
    int delivered = 0;
    try {
        forEachTrace(in, [&](const TraceEvent &, int) {
            ++delivered;
        });
        FAIL() << "expected parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos)
            << e.what();
    }
    // Everything before the bad line was delivered, nothing after.
    EXPECT_EQ(delivered, 2);
}

TEST(TraceStream, CallbackErrorsCarryTheLineNumber)
{
    std::istringstream in("{\"a\":1}\n{\"a\":2}\n");
    try {
        forEachTrace(in, [&](const TraceEvent &ev, int) {
            if (ev.num("a") == 2.0)
                throw std::runtime_error("rejected by callback");
        });
        FAIL() << "expected callback error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("rejected by callback"),
                  std::string::npos)
            << what;
    }
}

TEST(TraceStream, FileVariantPrefixesThePath)
{
    const std::string path =
        testing::TempDir() + "ahq_stream_test.jsonl";
    {
        std::ofstream out(path);
        out << "{\"a\":1}\nbroken\n";
    }
    try {
        forEachTraceFile(path, [](const TraceEvent &, int) {});
        FAIL() << "expected parse error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    }
    std::remove(path.c_str());

    EXPECT_THROW(
        forEachTraceFile("/nonexistent/trace.jsonl",
                         [](const TraceEvent &, int) {}),
        std::runtime_error);
}

} // namespace
