/**
 * @file
 * MetricsRegistry: counter semantics, histogram bucketing
 * (inclusive upper bounds, overflow bucket), and the shared-registry
 * rule: updates commute, so totals and print() bytes do not depend
 * on the order (or the threads) they arrive in.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "obs/metrics.hh"

namespace
{

using ahq::obs::HistogramSnapshot;
using ahq::obs::MetricsRegistry;

std::string
printed(const MetricsRegistry &m)
{
    std::ostringstream os;
    m.print(os);
    return os.str();
}

TEST(Metrics, CountersAccumulateAndDefaultToZero)
{
    MetricsRegistry m;
    EXPECT_DOUBLE_EQ(m.counter("missing"), 0.0);
    EXPECT_EQ(printed(m), "");

    m.add("arq.move");
    m.add("arq.move");
    m.add("arq.move", 2.5);
    EXPECT_DOUBLE_EQ(m.counter("arq.move"), 4.5);
    EXPECT_EQ(printed(m), "counter arq.move = 4.5\n");
}

TEST(Metrics, HistogramBucketingUsesInclusiveUpperBounds)
{
    MetricsRegistry m;

    // A value equal to a bound lands in that bound's bucket.
    m.observe("lat", 1.0);  // bucket 3 (v <= 1)
    m.observe("lat", 0.9);  // bucket 3
    m.observe("lat", 5.0);  // bucket 5 (v <= 5)
    m.observe("lat", 9.9);  // bucket 6 (v <= 10)
    m.observe("lat", 1000.1); // overflow
    m.observe("lat", 1e9);  // overflow

    const HistogramSnapshot h = m.histogram("lat");
    ASSERT_EQ(h.bounds,
              (std::vector<double>{0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                                   10.0, 25.0, 50.0, 100.0, 250.0,
                                   500.0, 1000.0}));
    ASSERT_EQ(h.counts.size(), 14u); // bounds + overflow
    EXPECT_EQ(h.counts[3], 2u);
    EXPECT_EQ(h.counts[5], 1u);
    EXPECT_EQ(h.counts[6], 1u);
    EXPECT_EQ(h.counts[13], 2u);
    EXPECT_EQ(h.total, 6u);
    EXPECT_DOUBLE_EQ(h.sum, 1.0 + 0.9 + 5.0 + 9.9 + 1000.1 + 1e9);
}

TEST(Metrics, MissingHistogramSnapshotIsEmpty)
{
    MetricsRegistry m;
    const auto h = m.histogram("absent");
    EXPECT_TRUE(h.bounds.empty());
    EXPECT_TRUE(h.counts.empty());
    EXPECT_EQ(h.total, 0u);
}

TEST(Metrics, ObserveBucketedFoldsPrecountedValues)
{
    // The SpanProfiler flush path: whole buckets at a time, with
    // the sum supplied once.
    MetricsRegistry m;
    m.observeBucketed("h", {{0.5, 3}, {1.5, 2}, {2000.0, 1}}, 12.5);
    const auto h = m.histogram("h");
    ASSERT_EQ(h.counts.size(), 14u);
    EXPECT_EQ(h.counts[2], 3u);  // v <= 0.5
    EXPECT_EQ(h.counts[4], 2u);  // v <= 2.5
    EXPECT_EQ(h.counts[13], 1u); // overflow
    EXPECT_EQ(h.total, 6u);
    EXPECT_DOUBLE_EQ(h.sum, 12.5);
}

TEST(Metrics, RecordingOrderNeverChangesSerialisedOutput)
{
    // Every node of a fan-out records into one registry, in
    // whatever order the workers interleave: three nodes' updates
    // fed in two different orders must give the same bucket counts
    // AND the same print() bytes — the property that makes
    // `ahq sweep --jobs N` metrics independent of interleaving.
    auto node = [](MetricsRegistry &r, int offset) {
        for (int i = 0; i < 9; ++i) {
            const double v = (i * 7 + offset) % 11;
            r.observe("lat", v);
            r.add("events");
        }
        r.observeBucketed("pre", {{1.0, 2}, {6.0, 1}}, 8.0);
    };
    MetricsRegistry left;  // a, then b, then c
    node(left, 0);
    node(left, 1);
    node(left, 2);
    MetricsRegistry right; // c, then a, then b
    node(right, 2);
    node(right, 0);
    node(right, 1);

    const auto hl = left.histogram("lat");
    const auto hr = right.histogram("lat");
    ASSERT_EQ(hl.counts.size(), hr.counts.size());
    for (std::size_t i = 0; i < hl.counts.size(); ++i)
        EXPECT_EQ(hl.counts[i], hr.counts[i]);
    EXPECT_EQ(hl.total, hr.total);
    EXPECT_EQ(printed(left), printed(right));
}

TEST(Metrics, ConcurrentAddsIntoSharedRegistryAreExact)
{
    MetricsRegistry m;
    constexpr int kThreads = 4;
    constexpr int kPer = 2000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&m] {
            for (int i = 0; i < kPer; ++i) {
                m.add("shared");
                m.observe("obs", 1.0);
            }
        });
    }
    for (auto &t : ts)
        t.join();
    EXPECT_DOUBLE_EQ(m.counter("shared"),
                     double(kThreads) * kPer);
    EXPECT_EQ(m.histogram("obs").total,
              std::uint64_t(kThreads) * kPer);
}

TEST(Metrics, PrintNamesEveryMetricWithKind)
{
    MetricsRegistry m;
    m.add("zeta.count", 2.0);
    m.observe("mid.hist", 0.5);
    std::ostringstream os;
    m.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("counter zeta.count"), std::string::npos);
    EXPECT_NE(out.find("histogram mid.hist"), std::string::npos);
}

} // namespace
