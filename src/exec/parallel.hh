/**
 * @file
 * Ordered data-parallel primitives on top of ThreadPool.
 *
 * parallelFor(pool, n, fn) runs fn(0..n-1) with the calling thread
 * participating; parallelMap collects fn(items[i]) into slot i of
 * the result vector. Because every index writes only its own slot
 * and carries its own state (the repo's scenarios each own a seeded
 * RNG), results are bitwise identical at any thread count — the
 * scheduling order is unobservable.
 */

#ifndef AHQ_EXEC_PARALLEL_HH
#define AHQ_EXEC_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "exec/thread_pool.hh"

namespace ahq::exec
{

/**
 * Threads that drain a parallelFor()'s indices: the workers and the
 * caller, or the caller alone where the loop runs inline.
 */
inline std::size_t
drainingThreads(const ThreadPool &pool)
{
    return pool.threads() <= 1 || ThreadPool::onPoolThread()
        ? 1
        : static_cast<std::size_t>(pool.threads()) + 1;
}

/**
 * Run fn(i) for i in [0, n) across the pool, returning when every
 * call has finished. The caller drains indices alongside the
 * workers, and nested calls from inside a pool task run entirely
 * inline, so the primitive cannot deadlock on its own pool. The
 * first exception thrown by fn stops the remaining indices and is
 * rethrown here.
 */
inline void
parallelFor(ThreadPool &pool, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (n == 1 || drainingThreads(pool) == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    struct State
    {
        std::atomic<std::size_t> next{0};
        std::atomic<bool> stop{false};
        std::mutex m;
        std::condition_variable cv;
        int pending = 0;
        std::exception_ptr error;
        std::size_t n = 0;
        const std::function<void(std::size_t)> *fn = nullptr;
    };
    // shared_ptr: queued helper tasks may start after the caller
    // has already drained every index.
    auto st = std::make_shared<State>();
    st->n = n;
    st->fn = &fn;

    auto drain = [](const std::shared_ptr<State> &s) {
        while (!s->stop.load(std::memory_order_relaxed)) {
            const std::size_t i =
                s->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= s->n)
                break;
            try {
                (*s->fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(s->m);
                if (!s->error)
                    s->error = std::current_exception();
                s->stop.store(true, std::memory_order_relaxed);
            }
        }
    };

    const std::size_t helpers = std::min<std::size_t>(
        static_cast<std::size_t>(pool.threads()), n);
    st->pending = static_cast<int>(helpers);
    for (std::size_t t = 0; t < helpers; ++t) {
        pool.post([st, drain] {
            drain(st);
            std::lock_guard<std::mutex> lk(st->m);
            if (--st->pending == 0)
                st->cv.notify_all();
        });
    }
    drain(st);
    std::unique_lock<std::mutex> lk(st->m);
    st->cv.wait(lk, [&] { return st->pending == 0; });
    if (st->error)
        std::rethrow_exception(st->error);
}

/**
 * Map items through fn across the pool; out[i] == fn(items[i]) with
 * results in input order regardless of execution interleaving. The
 * result type must be default-constructible.
 */
template <typename T, typename F>
auto
parallelMap(ThreadPool &pool, const std::vector<T> &items, F fn)
    -> std::vector<std::invoke_result_t<F &, const T &>>
{
    using R = std::invoke_result_t<F &, const T &>;
    std::vector<R> out(items.size());
    parallelFor(pool, items.size(),
                [&](std::size_t i) { out[i] = fn(items[i]); });
    return out;
}

} // namespace ahq::exec

#endif // AHQ_EXEC_PARALLEL_HH
