/**
 * @file
 * A fixed-size worker pool for fanning independent evaluations
 * (scenario simulations, oracle layout searches) across cores.
 *
 * The pool is deliberately work-stealing-free: tasks run in FIFO
 * submission order on whichever worker frees up first, and every
 * higher-level primitive built on it (exec/parallel.hh) collects
 * results by index, so outputs never depend on interleaving. That
 * is the repo's determinism contract — parallel runs are bitwise
 * identical to serial runs because each task owns its seeded RNG
 * and writes only its own result slot.
 */

#ifndef AHQ_EXEC_THREAD_POOL_HH
#define AHQ_EXEC_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ahq::exec
{

/**
 * Fixed set of worker threads draining one FIFO task queue.
 *
 * Lifetime: shutdown() (called by the destructor) drains every task
 * already queued, then joins the workers, so fire-and-forget work
 * posted before shutdown always completes. Posting after shutdown
 * has begun is a defined error: post() throws instead of silently
 * enqueueing work that would never run.
 */
class ThreadPool
{
  public:
    /** @param threads Worker count; clamped up to 1. */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    int threads() const
    {
        return static_cast<int>(workers_.size());
    }

    /**
     * Enqueue fire-and-forget work. Never blocks, so it is safe to
     * call from inside a pool task (nested submission enqueues; the
     * caller must not block waiting on the nested task from a pool
     * thread). The task must not throw — use submit() for work
     * whose exceptions matter.
     *
     * @throws std::runtime_error once shutdown() has begun — the
     *         task would otherwise be dropped on the floor. The
     *         check and the enqueue happen under one lock, so a
     *         racing post() either lands before the drain or
     *         throws; it can never be lost silently.
     */
    void post(std::function<void()> task);

    /**
     * Stop accepting work, drain the queue and join the workers.
     * Idempotent; called by the destructor. Must not be called from
     * a pool thread (a worker cannot join itself).
     */
    void shutdown();

    /**
     * Enqueue work and observe its result — or its exception — via
     * the returned future.
     */
    template <typename F>
    auto submit(F &&fn)
        -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        auto fut = task->get_future();
        post([task] { (*task)(); });
        return fut;
    }

    /**
     * True when the calling thread is a pool worker (of any pool in
     * the process). parallelFor() uses this to run nested parallel
     * regions inline instead of deadlocking on its own workers.
     */
    static bool onPoolThread();

  private:
    void workerLoop();

    std::mutex m_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace ahq::exec

#endif // AHQ_EXEC_THREAD_POOL_HH
