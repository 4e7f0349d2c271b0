/**
 * @file
 * Default-jobs resolution and the global pool.
 */

#include "exec/jobs.hh"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "exec/thread_pool.hh"

namespace ahq::exec
{

namespace
{

std::mutex g_mutex;
int g_jobs = 0; // 0 = not resolved yet
std::unique_ptr<ThreadPool> g_pool;

int
resolveJobs()
{
    if (const int env = envJobs())
        return env;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

} // namespace

int
envJobs()
{
    const char *env = std::getenv("AHQ_JOBS");
    if (env == nullptr)
        return 0;
    // Only a whole number >= 1: no sign, space or suffix.
    const char *end = env + std::strlen(env);
    int v = 0;
    const auto [stop, ec] = std::from_chars(env, end, v);
    if (ec != std::errc{} || stop != end || v < 1) {
        throw std::invalid_argument(
            std::string("AHQ_JOBS must be a whole number >= 1 (got '") +
            env + "')");
    }
    return v;
}

void
setDefaultJobs(int jobs)
{
    std::unique_ptr<ThreadPool> retired;
    {
        std::lock_guard<std::mutex> lk(g_mutex);
        g_jobs = jobs >= 1 ? jobs : resolveJobs();
        if (g_pool && g_pool->threads() != g_jobs)
            retired = std::move(g_pool);
    }
    // retired joins its workers here, outside the lock
}

ThreadPool &
globalPool()
{
    std::lock_guard<std::mutex> lk(g_mutex);
    if (g_jobs < 1)
        g_jobs = resolveJobs();
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(g_jobs);
    return *g_pool;
}

} // namespace ahq::exec
