/**
 * @file
 * Process-wide thread-count policy and the shared pool.
 *
 * Thread count resolves, in order: setDefaultJobs() (the CLI's
 * --jobs flag), the AHQ_JOBS environment variable, then
 * std::thread::hardware_concurrency(). AHQ_JOBS must be a whole
 * number >= 1: anything else throws std::invalid_argument naming
 * the variable from whichever call resolves it first, so a typo
 * never silently runs at the hardware count. Every parallel entry
 * point in the repo accepts an explicit ThreadPool for tests and
 * falls back to globalPool() — results do not depend on the choice.
 */

#ifndef AHQ_EXEC_JOBS_HH
#define AHQ_EXEC_JOBS_HH

namespace ahq::exec
{

class ThreadPool;

/**
 * The thread count AHQ_JOBS asks for, read now; 0 when it is unset.
 * @throws std::invalid_argument naming AHQ_JOBS unless it is a
 *         whole number >= 1.
 */
int envJobs();

/**
 * Override the default thread count (values < 1 reset to the
 * AHQ_JOBS / hardware default). Recreates the global pool if it
 * already exists at a different size; call while no parallel work
 * is in flight (e.g. during argument parsing).
 * @throws std::invalid_argument on a reset with a malformed AHQ_JOBS.
 */
void setDefaultJobs(int jobs);

/**
 * The lazily-created process-wide pool at the resolved thread count.
 * @throws std::invalid_argument on a malformed AHQ_JOBS.
 */
ThreadPool &globalPool();

} // namespace ahq::exec

#endif // AHQ_EXEC_JOBS_HH
