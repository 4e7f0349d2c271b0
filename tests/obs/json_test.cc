/**
 * @file
 * JSON writer/reader: escaping round-trips through the trace
 * parser, number formatting is deterministic (std::to_chars), and
 * the reader fails loudly on malformed input.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "obs/json.hh"
#include "obs/trace_reader.hh"

namespace
{

namespace json = ahq::obs::json;
using ahq::obs::parseTraceLine;
using ahq::obs::forEachTrace;
using ahq::obs::TraceEvent;
using ahq::obs::TraceValue;

/** s as appendString writes it into an empty std::string. */
std::string
escaped(std::string_view s)
{
    std::string out;
    json::appendString(out, s);
    return out;
}

TEST(Json, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(escaped("plain"), "\"plain\"");
    EXPECT_EQ(escaped("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(escaped("back\\slash"), "\"back\\\\slash\"");
    EXPECT_EQ(escaped("tab\there"), "\"tab\\there\"");
    EXPECT_EQ(escaped("line\nbreak"), "\"line\\nbreak\"");
    EXPECT_EQ(escaped(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Json, EscapingRoundTripsThroughTheReader)
{
    const std::string nasty =
        "quote\" back\\ tab\t nl\n cr\r ctl\x02 end";
    std::string line = "{\"type\":\"t\",\"s\":";
    json::appendString(line, nasty);
    line += "}";

    const auto ev = parseTraceLine(line);
    EXPECT_EQ(ev.str("s"), nasty);
}

TEST(Json, NumberFormattingIsShortestRoundTrip)
{
    std::string out;
    json::appendNumber(out, 0.5);
    EXPECT_EQ(out, "0.5");

    out.clear();
    json::appendNumber(out, static_cast<long long>(-42));
    EXPECT_EQ(out, "-42");

    // Same double -> same bytes, and parsing recovers the value
    // exactly — the trace byte-identity tests lean on this.
    const double v = 0.1 + 0.2;
    std::string a, b;
    json::appendNumber(a, v);
    json::appendNumber(b, v);
    EXPECT_EQ(a, b);
    const auto ev = parseTraceLine("{\"x\":" + a + "}");
    EXPECT_EQ(ev.num("x"), v);
}

TEST(Json, NonFiniteDoublesRenderAsNull)
{
    std::string out;
    json::appendNumber(out,
                       std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(out, "null");
    out.clear();
    json::appendNumber(out,
                       std::numeric_limits<double>::infinity());
    EXPECT_EQ(out, "null");

    const auto ev = parseTraceLine("{\"x\":null}");
    ASSERT_TRUE(ev.has("x"));
    EXPECT_EQ(ev.fields.at("x").kind, TraceValue::Kind::Null);
    EXPECT_EQ(ev.num("x", -1.0), -1.0); // null is not a number
}

TEST(Json, NegativeZeroRendersDeterministically)
{
    // -0.0 must render the same bytes every time and round-trip to
    // a value that compares equal to zero.
    std::string a, b;
    json::appendNumber(a, -0.0);
    json::appendNumber(b, -0.0);
    EXPECT_EQ(a, b);
    const auto ev = parseTraceLine("{\"x\":" + a + "}");
    EXPECT_EQ(ev.num("x"), 0.0);
    // +0.0 and -0.0 are distinct doubles; whatever the renderer
    // chooses, each must be stable.
    std::string pos1, pos2;
    json::appendNumber(pos1, 0.0);
    json::appendNumber(pos2, 0.0);
    EXPECT_EQ(pos1, pos2);
}

TEST(Json, DenormalsRenderShortestRoundTrip)
{
    for (const double v :
         {std::numeric_limits<double>::denorm_min(),
          1e-310, // mid-range subnormal
          std::numeric_limits<double>::min() / 2.0}) {
        std::string a, b;
        json::appendNumber(a, v);
        json::appendNumber(b, v);
        EXPECT_EQ(a, b) << "unstable rendering for " << v;
        const auto ev = parseTraceLine("{\"x\":" + a + "}");
        EXPECT_EQ(ev.num("x"), v)
            << "lossy round-trip for " << v;
    }
}

TEST(Json, EveryNonFiniteShapeRendersNull)
{
    // NaN (both signs), +/-Inf: all become the literal "null", so
    // a trace line can never contain invalid JSON tokens like
    // "nan" or "inf".
    for (const double v :
         {std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::signaling_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()}) {
        std::string out;
        json::appendNumber(out, v);
        EXPECT_EQ(out, "null");
    }
}

TEST(Json, ReaderParsesArraysAndTypedAccessors)
{
    const auto ev = parseTraceLine(
        "{\"v\":1,\"type\":\"epoch\",\"ret\":[0.1,0.2,3],"
        "\"apps\":[\"a\",\"b\"],\"ok\":true}");
    EXPECT_EQ(ev.type(), "epoch");
    EXPECT_EQ(ev.num("v"), 1.0);
    EXPECT_EQ(ev.nums("ret"),
              (std::vector<double>{0.1, 0.2, 3.0}));
    EXPECT_EQ(ev.strs("apps"),
              (std::vector<std::string>{"a", "b"}));
    // Absent / wrong-kind fields fall back to defaults.
    EXPECT_EQ(ev.str("missing", "d"), "d");
    EXPECT_TRUE(ev.nums("apps").empty());
    EXPECT_FALSE(ev.has("nope"));
}

TEST(Json, ReaderRejectsMalformedLines)
{
    EXPECT_THROW(parseTraceLine("not json"), std::runtime_error);
    EXPECT_THROW(parseTraceLine("{\"a\":}"), std::runtime_error);
    EXPECT_THROW(parseTraceLine("{\"a\":1"), std::runtime_error);
    EXPECT_THROW(parseTraceLine("{\"a\":[1,}"),
                 std::runtime_error);
    EXPECT_THROW(parseTraceLine("{\"a\":{\"nested\":1}}"),
                 std::runtime_error);
}

TEST(Json, StreamReaderSkipsBlankLinesAndNumbersErrors)
{
    std::istringstream ok("{\"a\":1}\n\n{\"a\":2}\n");
    std::vector<TraceEvent> evs;
    forEachTrace(ok, [&](const TraceEvent &ev, int) { evs.push_back(ev); });
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[1].num("a"), 2.0);

    std::istringstream bad("{\"a\":1}\ngarbage\n");
    try {
        forEachTrace(bad, [](const TraceEvent &, int) {});
        FAIL() << "expected parse error";
    } catch (const std::runtime_error &e) {
        // The error names the offending line number.
        EXPECT_NE(std::string(e.what()).find("2"),
                  std::string::npos);
    }
}

} // namespace
