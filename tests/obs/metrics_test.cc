/**
 * @file
 * MetricsRegistry: counter semantics, histogram bucketing
 * (inclusive upper bounds, overflow bucket), and the merge rules
 * that make per-worker registries equivalent to a serial run.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "obs/metrics.hh"

namespace
{

using ahq::obs::HistogramSnapshot;
using ahq::obs::MetricsRegistry;

TEST(Metrics, CountersAccumulateAndDefaultToZero)
{
    MetricsRegistry m;
    EXPECT_DOUBLE_EQ(m.counter("missing"), 0.0);
    EXPECT_TRUE(m.empty());

    m.add("arq.move");
    m.add("arq.move");
    m.add("arq.move", 2.5);
    EXPECT_DOUBLE_EQ(m.counter("arq.move"), 4.5);
    EXPECT_FALSE(m.empty());
}

TEST(Metrics, HistogramBucketingUsesInclusiveUpperBounds)
{
    MetricsRegistry m;
    const std::vector<double> bounds{1.0, 5.0, 10.0};

    // A value equal to a bound lands in that bound's bucket.
    m.observe("lat", 1.0, bounds);  // bucket 0 (v <= 1)
    m.observe("lat", 0.2, bounds);  // bucket 0
    m.observe("lat", 5.0, bounds);  // bucket 1 (v <= 5)
    m.observe("lat", 9.9, bounds);  // bucket 2
    m.observe("lat", 10.1, bounds); // overflow
    m.observe("lat", 1e9, bounds);  // overflow

    const HistogramSnapshot h = m.histogram("lat");
    ASSERT_EQ(h.bounds.size(), 3u);
    ASSERT_EQ(h.counts.size(), 4u); // bounds + overflow
    EXPECT_EQ(h.counts[0], 2u);
    EXPECT_EQ(h.counts[1], 1u);
    EXPECT_EQ(h.counts[2], 1u);
    EXPECT_EQ(h.counts[3], 2u);
    EXPECT_EQ(h.total, 6u);
    EXPECT_DOUBLE_EQ(h.sum, 1.0 + 0.2 + 5.0 + 9.9 + 10.1 + 1e9);
}

TEST(Metrics, HistogramLayoutFixedByFirstObservation)
{
    MetricsRegistry m;
    m.observe("x", 2.0, {1.0, 10.0});
    // Later bounds are ignored; the value is bucketed in the
    // original layout.
    m.observe("x", 2.0, {100.0});
    const auto h = m.histogram("x");
    ASSERT_EQ(h.bounds.size(), 2u);
    EXPECT_EQ(h.counts[1], 2u);
    EXPECT_EQ(h.total, 2u);
}

TEST(Metrics, MissingHistogramSnapshotIsEmpty)
{
    MetricsRegistry m;
    const auto h = m.histogram("absent");
    EXPECT_TRUE(h.bounds.empty());
    EXPECT_TRUE(h.counts.empty());
    EXPECT_EQ(h.total, 0u);
}

TEST(Metrics, MergeAddsCountersAndHistograms)
{
    MetricsRegistry a;
    MetricsRegistry b;
    a.add("c", 2.0);
    b.add("c", 3.0);
    b.add("only_b", 1.0);
    a.observe("h", 0.5, {1.0, 2.0});
    b.observe("h", 1.5, {1.0, 2.0});
    b.observe("h", 99.0, {1.0, 2.0});

    a.merge(b);
    EXPECT_DOUBLE_EQ(a.counter("c"), 5.0);
    EXPECT_DOUBLE_EQ(a.counter("only_b"), 1.0);

    const auto h = a.histogram("h");
    EXPECT_EQ(h.total, 3u);
    EXPECT_EQ(h.counts[0], 1u);
    EXPECT_EQ(h.counts[1], 1u);
    EXPECT_EQ(h.counts[2], 1u);
    EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.5 + 99.0);
}

TEST(Metrics, MergeOrderOfWorkersMatchesSerialTotals)
{
    // The property the exec layer relies on: counters and histogram
    // buckets commute, so per-worker registries merged in any order
    // equal one registry that saw every event.
    MetricsRegistry serial;
    MetricsRegistry w1;
    MetricsRegistry w2;
    for (int i = 0; i < 10; ++i) {
        serial.add("n");
        serial.observe("v", i, {3.0, 6.0});
        (i % 2 == 0 ? w1 : w2).add("n");
        (i % 2 == 0 ? w1 : w2).observe("v", i, {3.0, 6.0});
    }
    MetricsRegistry merged;
    merged.merge(w2);
    merged.merge(w1);
    EXPECT_DOUBLE_EQ(merged.counter("n"), serial.counter("n"));
    const auto hs = serial.histogram("v");
    const auto hm = merged.histogram("v");
    ASSERT_EQ(hm.counts.size(), hs.counts.size());
    for (std::size_t i = 0; i < hs.counts.size(); ++i)
        EXPECT_EQ(hm.counts[i], hs.counts[i]);
    EXPECT_EQ(hm.total, hs.total);
    EXPECT_DOUBLE_EQ(hm.sum, hs.sum);
}

TEST(Metrics, ObserveBucketedFoldsPrecountedValues)
{
    // The SpanProfiler flush path: whole buckets at a time, with
    // the sum supplied once.
    MetricsRegistry m;
    m.observeBucketed("h", {{0.5, 3}, {1.5, 2}, {99.0, 1}}, 12.5,
                      {1.0, 2.0});
    const auto h = m.histogram("h");
    ASSERT_EQ(h.counts.size(), 3u);
    EXPECT_EQ(h.counts[0], 3u);
    EXPECT_EQ(h.counts[1], 2u);
    EXPECT_EQ(h.counts[2], 1u); // overflow
    EXPECT_EQ(h.total, 6u);
    EXPECT_DOUBLE_EQ(h.sum, 12.5);
}

TEST(Metrics, HistogramMergeOrderNeverChangesSerialisedOutput)
{
    // Three registries with interleaved observations, merged in
    // two different orders: bucket counts AND the print() bytes
    // must match — the property that makes `ahq sweep --jobs N`
    // metrics independent of worker interleaving.
    auto fill = [](MetricsRegistry &r, int offset) {
        for (int i = 0; i < 9; ++i) {
            const double v = (i * 7 + offset) % 11;
            r.observe("lat", v, {2.0, 5.0, 8.0});
            r.add("events");
        }
        r.observeBucketed("pre", {{1.0, 2}, {6.0, 1}}, 8.0,
                          {2.0, 5.0, 8.0});
    };
    MetricsRegistry a1, b1, c1, a2, b2, c2;
    fill(a1, 0);
    fill(b1, 1);
    fill(c1, 2);
    fill(a2, 0);
    fill(b2, 1);
    fill(c2, 2);

    MetricsRegistry left;  // a, then b, then c
    left.merge(a1);
    left.merge(b1);
    left.merge(c1);
    MetricsRegistry right; // c, then a, then b
    right.merge(c2);
    right.merge(a2);
    right.merge(b2);

    const auto hl = left.histogram("lat");
    const auto hr = right.histogram("lat");
    ASSERT_EQ(hl.counts.size(), hr.counts.size());
    for (std::size_t i = 0; i < hl.counts.size(); ++i)
        EXPECT_EQ(hl.counts[i], hr.counts[i]);
    EXPECT_EQ(hl.total, hr.total);

    std::ostringstream sl, sr;
    left.print(sl);
    right.print(sr);
    EXPECT_EQ(sl.str(), sr.str());
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
                m.observe("obs", 1.0, {2.0});
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

TEST(Metrics, ClearDropsEverything)
{
    MetricsRegistry m;
    m.add("c");
    m.observe("h", 1.0);
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_DOUBLE_EQ(m.counter("c"), 0.0);
}

TEST(Metrics, MergeWithMismatchedBoundsFoldsTotalsOnly)
{
    MetricsRegistry a;
    MetricsRegistry b;
    a.observe("h", 0.5, {1.0, 2.0});
    b.observe("h", 0.5, {10.0});

    a.merge(b);
    const auto h = a.histogram("h");
    ASSERT_EQ(h.bounds.size(), 2u); // our layout wins
    EXPECT_EQ(h.total, 2u);
    EXPECT_DOUBLE_EQ(h.sum, 1.0);
    // Bucket counts cannot be reconciled, so only ours remain.
    EXPECT_EQ(h.counts[0], 1u);
}

TEST(Metrics, PrintNamesEveryMetricWithKind)
{
    MetricsRegistry m;
    m.add("zeta.count", 2.0);
    m.observe("mid.hist", 0.5, {1.0});
    std::ostringstream os;
    m.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("counter zeta.count"), std::string::npos);
    EXPECT_NE(out.find("histogram mid.hist"), std::string::npos);
}

} // namespace
