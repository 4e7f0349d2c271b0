/**
 * @file
 * ThreadPool and parallelFor/parallelMap unit tests: startup and
 * shutdown, exception propagation, nested posting without
 * deadlock, and ordered result collection.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/jobs.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"

namespace
{

using namespace ahq;

TEST(ThreadPool, StartupShutdownIdle)
{
    for (int n : {1, 2, 4, 8}) {
        exec::ThreadPool pool(n);
        EXPECT_EQ(pool.threads(), n);
    }
    // A non-positive request still yields a working 1-thread pool.
    exec::ThreadPool clamped(0);
    EXPECT_EQ(clamped.threads(), 1);
}

TEST(ThreadPool, DestructorDrainsPostedWork)
{
    std::atomic<int> ran{0};
    {
        exec::ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.post([&ran] { ++ran; });
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, PostAfterShutdownThrows)
{
    exec::ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.post([&ran] { ++ran; });
    pool.shutdown();
    EXPECT_EQ(ran.load(), 1); // shutdown drained the queue
    // The old behavior silently enqueued onto a dead queue; now the
    // caller hears about it.
    EXPECT_THROW(pool.post([&ran] { ++ran; }), std::runtime_error);
    EXPECT_EQ(ran.load(), 1);
    pool.shutdown(); // idempotent
}

TEST(ThreadPool, ShutdownDrainsQueuedWork)
{
    exec::ThreadPool pool(1);
    std::atomic<int> ran{0};
    for (int i = 0; i < 128; ++i)
        pool.post([&ran] { ++ran; });
    pool.shutdown();
    EXPECT_EQ(ran.load(), 128);
}

TEST(ThreadPool, ConcurrentPostersVsShutdownLoseNoWork)
{
    // Posters race shutdown(): every post must either run (it won
    // the race) or throw (it lost) — never vanish into a queue no
    // worker reads. executed + rejected therefore accounts for
    // every attempt exactly once.
    for (int round = 0; round < 8; ++round) {
        exec::ThreadPool pool(2);
        std::atomic<int> executed{0};
        std::atomic<int> rejected{0};
        std::vector<std::thread> posters;
        for (int p = 0; p < 4; ++p) {
            posters.emplace_back([&] {
                for (int i = 0; i < 64; ++i) {
                    try {
                        pool.post([&executed] { ++executed; });
                    } catch (const std::runtime_error &) {
                        ++rejected;
                    }
                }
            });
        }
        pool.shutdown();
        for (auto &t : posters)
            t.join();
        EXPECT_EQ(executed.load() + rejected.load(), 4 * 64)
            << "round " << round;
    }
}

TEST(ThreadPool, NestedPostNoDeadlock)
{
    exec::ThreadPool pool(1); // worst case: a single worker
    std::promise<bool> outer;
    std::promise<void> inner;
    auto outer_done = outer.get_future();
    auto inner_done = inner.get_future();
    pool.post([&] {
        // Enqueue from inside a pool task; must not block.
        pool.post([&inner] { inner.set_value(); });
        outer.set_value(exec::ThreadPool::onPoolThread());
    });
    EXPECT_TRUE(outer_done.get());
    // The one worker runs the nested task next.
    inner_done.get();
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    exec::ThreadPool pool(2);
    std::promise<int> sum;
    auto done = sum.get_future();
    pool.post([&] {
        std::vector<int> out(16, 0);
        exec::parallelFor(pool, out.size(), [&](std::size_t i) {
            out[i] = static_cast<int>(i);
        });
        sum.set_value(std::accumulate(out.begin(), out.end(), 0));
    });
    EXPECT_EQ(done.get(), 120);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    exec::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    exec::parallelFor(pool, hits.size(),
                      [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroAndOneIndexRunInline)
{
    exec::ThreadPool pool(4);
    int calls = 0;
    exec::parallelFor(pool, 0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    exec::parallelFor(pool, 1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesFirstException)
{
    exec::ThreadPool pool(4);
    EXPECT_THROW(
        exec::parallelFor(pool, 64,
                          [&](std::size_t i) {
                              if (i == 13)
                                  throw std::runtime_error("13");
                          }),
        std::runtime_error);
}

TEST(ParallelMap, ResultsAreInInputOrder)
{
    exec::ThreadPool pool(4);
    std::vector<int> in(100);
    std::iota(in.begin(), in.end(), 0);
    const auto out = exec::parallelMap(
        pool, in, [](const int &v) { return v * v; });
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(Jobs, EnvAndOverrideResolution)
{
    EXPECT_GE(exec::globalPool().threads(), 1);
    exec::setDefaultJobs(3);
    EXPECT_EQ(exec::globalPool().threads(), 3);
    exec::setDefaultJobs(0); // back to the environment default
    EXPECT_GE(exec::globalPool().threads(), 1);
}

} // namespace
