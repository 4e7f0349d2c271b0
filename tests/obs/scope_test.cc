/**
 * @file
 * obs::Scope and sinks: disabled scopes are no-ops, event lines
 * have a stable header + call-order payload, nested events keep
 * their own bytes, warm event assembly allocates nothing, derived
 * scopes copy context, and FileTraceSink handles paths the way
 * outputDir() does — create parents, fail loudly on unwritable
 * locations.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/alloc.hh"
#include "obs/scope.hh"
#include "obs/trace_reader.hh"

namespace
{

namespace fs = std::filesystem;
using ahq::obs::BufferTraceSink;
using ahq::obs::Event;
using ahq::obs::FileTraceSink;
using ahq::obs::kSchemaVersion;
using ahq::obs::MetricsRegistry;
using ahq::obs::forEachTraceFile;
using ahq::obs::Scope;

TEST(Scope, DisabledScopeIsANoOp)
{
    const Scope off; // both pointers null
    EXPECT_FALSE(off.tracing());
    // None of these may crash or record anything.
    off.emit(Event("epoch").num("t", 1.0));
    off.count("x");
    off.observe("h", 3.0);
}

TEST(Scope, EventHeaderThenFieldsInCallOrder)
{
    // render() returns a view of the event's line string: copy
    // it out (direct-init — std::string's string_view ctor is
    // explicit) before the Event is destroyed.
    const std::string line(Event("arq_decision")
                               .str("action", "move")
                               .num("e_s", 0.25)
                               .integer("victim", 2)
                               .nums("ret", {0.1, 0.2})
                               .ints("regions", {1, 3})
                               .strs("apps", {"a", "b"})
                               .render("s1", 7));
    EXPECT_EQ(line,
              "{\"v\":1,\"type\":\"arq_decision\","
              "\"scenario\":\"s1\",\"epoch\":7,"
              "\"action\":\"move\",\"e_s\":0.25,\"victim\":2,"
              "\"ret\":[0.1,0.2],\"regions\":[1,3],"
              "\"apps\":[\"a\",\"b\"]}");
}

TEST(Scope, HeaderOmitsEmptyScenarioAndNegativeEpoch)
{
    EXPECT_EQ(Event("run_start").render("", -1),
              "{\"v\":1,\"type\":\"run_start\"}");
}

TEST(Scope, EmitStampsScenarioAndEpoch)
{
    BufferTraceSink sink;
    MetricsRegistry metrics;
    Scope scope;
    scope.sink = &sink;
    scope.metrics = &metrics;
    scope.scenario = "ARQ@50";
    scope.epoch = 3;
    EXPECT_TRUE(scope.tracing());

    scope.emit(Event("epoch").num("t", 1.5));
    scope.count("sim.epochs");
    scope.observe("lat", 2.0);

    const auto lines = sink.lines();
    ASSERT_EQ(lines.size(), 1u);
    const auto ev = ahq::obs::parseTraceLine(lines[0]);
    EXPECT_EQ(ev.num("v"), kSchemaVersion);
    EXPECT_EQ(ev.type(), "epoch");
    EXPECT_EQ(ev.str("scenario"), "ARQ@50");
    EXPECT_EQ(ev.num("epoch"), 3.0);
    EXPECT_EQ(ev.num("t"), 1.5);
    EXPECT_DOUBLE_EQ(metrics.counter("sim.epochs"), 1.0);
    EXPECT_EQ(metrics.histogram("lat").total, 1u);
}

TEST(Scope, DerivedScopesCopyContextAndShareSink)
{
    BufferTraceSink sink;
    BufferTraceSink other;
    Scope base;
    base.sink = &sink;

    const Scope tagged = base.tagged("node0");
    const Scope at = tagged.atEpoch(5);
    const Scope redirected = at.withSink(&other);

    tagged.emit(Event("a"));
    at.emit(Event("b"));
    redirected.emit(Event("c"));

    const auto lines = sink.lines();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "{\"v\":1,\"type\":\"a\","
                        "\"scenario\":\"node0\"}");
    EXPECT_EQ(lines[1], "{\"v\":1,\"type\":\"b\","
                        "\"scenario\":\"node0\",\"epoch\":5}");
    const auto redirected_lines = other.lines();
    ASSERT_EQ(redirected_lines.size(), 1u);
    EXPECT_EQ(redirected_lines[0],
              "{\"v\":1,\"type\":\"c\","
              "\"scenario\":\"node0\",\"epoch\":5}");
    // base is untouched by the derived copies.
    EXPECT_TRUE(base.scenario.empty());
    EXPECT_EQ(base.epoch, -1);
}

TEST(Scope, FileTraceSinkCreatesParentDirectories)
{
    const fs::path dir = fs::path(testing::TempDir()) /
                         "ahq_obs_test" / "nested" / "deeper";
    const fs::path file = dir / "trace.jsonl";
    fs::remove_all(fs::path(testing::TempDir()) / "ahq_obs_test");

    {
        FileTraceSink sink(file.string());
        EXPECT_EQ(sink.path(), file.string());
        Scope scope;
        scope.sink = &sink;
        scope.emit(Event("run_start").str("scheduler", "ARQ"));
        sink.flush();
    }

    ASSERT_TRUE(fs::exists(file));
    std::vector<ahq::obs::TraceEvent> events;
    forEachTraceFile(file.string(),
                     [&](const ahq::obs::TraceEvent &ev, int) {
                         events.push_back(ev);
                     });
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type(), "run_start");
    EXPECT_EQ(events[0].str("scheduler"), "ARQ");
    fs::remove_all(fs::path(testing::TempDir()) / "ahq_obs_test");
}

TEST(Scope, FileTraceSinkRejectsParentThatIsAFile)
{
    const fs::path blocker =
        fs::path(testing::TempDir()) / "ahq_obs_blocker";
    { std::ofstream(blocker.string()) << "x"; }

    const std::string target = (blocker / "trace.jsonl").string();
    try {
        FileTraceSink sink(target);
        FAIL() << "expected constructor to throw";
    } catch (const std::runtime_error &e) {
        // The error names the offending path.
        EXPECT_NE(std::string(e.what()).find(blocker.string()),
                  std::string::npos);
    }
    fs::remove(blocker);
}

TEST(Scope, BufferTraceSinkAccumulatesAndClears)
{
    BufferTraceSink sink;
    sink.write("{\"a\":1}");
    sink.write("{\"a\":2}");
    EXPECT_EQ(sink.str(), "{\"a\":1}\n{\"a\":2}\n");
    ASSERT_EQ(sink.lines().size(), 2u);
    sink.clear();
    EXPECT_TRUE(sink.str().empty());
    EXPECT_TRUE(sink.lines().empty());
}

TEST(Event, AssemblySteadyStateIsAllocFree)
{
    if (!ahq::obs::allocCountingEnabled())
        GTEST_SKIP() << "sanitizer build: counting compiled out";

    // The array payloads are built once up front: the production
    // epoch path passes pre-sized vectors, and a brace temporary
    // would charge a heap allocation to the assembly under test.
    const std::vector<double> ret{0.1, 0.2, 0.3};
    const std::vector<std::string> apps{"a", "b"};
    auto assemble = [&] {
        Event ev("epoch");
        ev.num("e_s", 0.5)
            .integer("victim", 3)
            .nums("ret", ret)
            .strs("apps", apps);
        return std::string(ev.render("scenario_tag", 12)).size();
    };
    // Warm-up grows this depth's strings to this shape's size.
    for (int i = 0; i < 4; ++i)
        ASSERT_GT(assemble(), 0u);

    const auto before = ahq::obs::threadAllocCount();
    Event ev("epoch");
    ev.num("e_s", 0.5)
        .integer("victim", 3)
        .nums("ret", ret)
        .strs("apps", apps);
    const auto line = ev.render("scenario_tag", 12);
    EXPECT_FALSE(line.empty());
    EXPECT_EQ(ahq::obs::threadAllocCount(), before)
        << "event assembly allocated when warm";
}

TEST(Event, NestedEventsKeepTheirOwnBytes)
{
    const std::vector<double> ret{0.1, 0.2, 0.3};
    auto outerAlone = [&] {
        Event ev("epoch");
        ev.num("e_s", 0.5).nums("ret", ret);
        return std::string(ev.render("outer", 7));
    }();
    auto innerAlone = [&] {
        Event ev("series");
        ev.str("series", "e_s").integer("stride", 2);
        return std::string(ev.render("inner", -1));
    }();

    // The outer Event builds half its payload, an inner one is
    // built, rendered and destroyed, then the outer one finishes
    // and renders: neither may see the other's bytes.
    auto nestedPair = [&] {
        Event outer("epoch");
        outer.num("e_s", 0.5);
        bool innerSame = false;
        {
            Event inner("series");
            inner.str("series", "e_s").integer("stride", 2);
            innerSame = inner.render("inner", -1) == innerAlone;
        }
        outer.nums("ret", ret);
        return innerSame && outer.render("outer", 7) == outerAlone;
    };
    EXPECT_TRUE(nestedPair());
    EXPECT_TRUE(nestedPair()); // the depths' strings are reused

    // The byte checks above run in every build, sanitizers included.
    if (!ahq::obs::allocCountingEnabled())
        GTEST_SKIP() << "sanitizer build: counting compiled out";
    const auto before = ahq::obs::threadAllocCount();
    const bool same = nestedPair();
    EXPECT_EQ(ahq::obs::threadAllocCount(), before)
        << "a warm nested pair of events allocated";
    EXPECT_TRUE(same);
}

} // namespace
