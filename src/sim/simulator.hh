/**
 * @file
 * A minimal discrete-event simulation engine.
 *
 * The epoch-level system simulator (cluster/) is analytic, but the
 * library also ships a request-level discrete-event path, the
 * multi-class region simulator, used to cross-validate the analytic
 * queueing formulas (tests/ and bench/validation_model) and to let
 * downstream users plug in custom workloads.
 */

#ifndef AHQ_SIM_SIMULATOR_HH
#define AHQ_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace ahq::sim
{

/** Simulated time in seconds. */
using Time = double;

/**
 * Discrete-event simulator: a time-ordered queue of callbacks.
 *
 * Events scheduled for the same instant fire in scheduling order
 * (stable FIFO tie-break), which keeps runs deterministic.
 */
class Simulator
{
  public:
    using Handler = std::function<void()>;

    Simulator() = default;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule a handler at an absolute time.
     * @pre at >= now().
     */
    void schedule(Time at, Handler handler);

    /** Schedule a handler after a relative delay (>= 0). */
    void scheduleAfter(Time delay, Handler handler);

    /** Number of pending events. */
    std::size_t pending() const { return events.size(); }

    /**
     * Run events until the queue empties or the horizon passes.
     *
     * @param until Stop once the next event is later than this time;
     *              the clock is left at min(until, last event time).
     * @return Number of events executed.
     */
    std::uint64_t run(Time until);

    /** Run all pending events to exhaustion. */
    std::uint64_t runAll();

  private:
    struct Entry
    {
        Time at;
        std::uint64_t seq;
        Handler handler;

        bool
        operator>(const Entry &o) const
        {
            return at > o.at || (at == o.at && seq > o.seq);
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
        events;
    Time now_ = 0.0;
    std::uint64_t nextSeq = 0;
};

} // namespace ahq::sim

#endif // AHQ_SIM_SIMULATOR_HH
