/**
 * @file
 * The scheduling strategy interface.
 *
 * A scheduler sees exactly what the paper's controllers see every
 * monitoring interval — the measured p95 tail latency of each LC
 * application (with its QoS target and current-load ideal), the IPC
 * of each BE application — and reacts by mutating the RegionLayout
 * one (or a few) resource units at a time. The node simulator then
 * makes the new layout take effect in the following epoch.
 */

#ifndef AHQ_SCHED_SCHEDULER_HH
#define AHQ_SCHED_SCHEDULER_HH

#include <string>
#include <vector>

#include "machine/config.hh"
#include "machine/layout.hh"
#include "obs/scope.hh"
#include "perf/contention.hh"

namespace ahq::sched
{

/** Everything a scheduler may observe about one app per interval. */
struct AppObservation
{
    machine::AppId id = 0;
    bool latencyCritical = true;
    int threads = 4;

    /** Current load fraction of max load (LC). */
    double loadFraction = 0.0;

    /** Current request arrival rate, requests/s (LC). */
    double arrivalRate = 0.0;

    /** Measured p95 tail latency this interval, ms (LC). */
    double p95Ms = 0.0;

    /** TL_i0: ideal p95 at the current load, ms (LC). */
    double idealP95Ms = 0.0;

    /** M_i: QoS threshold, ms (LC). */
    double thresholdMs = 1.0;

    /** Measured IPC this interval (BE). */
    double ipc = 0.0;

    /** Solo IPC (BE). */
    double ipcSolo = 1.0;

    /**
     * Whether this interval's measurement was actually delivered.
     * Under fault injection a dropped sample repeats the previous
     * delivery with this flag cleared; schedulers should treat such
     * observations as stale (hold, don't steer) rather than fresh.
     */
    bool sampleValid = true;

    /** QoS slack (M_i - p95) / M_i; negative means violation. */
    double slack() const
    {
        return (thresholdMs - p95Ms) / thresholdMs;
    }
};

/**
 * Base class of all scheduling strategies.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Strategy name for reports ("ARQ", "PARTIES", ...). */
    virtual std::string name() const = 0;

    /**
     * Build the strategy's starting layout for a fresh colocation.
     *
     * @param config The node.
     * @param apps Static app descriptors (id/kind/threads filled).
     */
    virtual machine::RegionLayout
    initialLayout(const machine::MachineConfig &config,
                  const std::vector<AppObservation> &apps) = 0;

    /** Core-sharing discipline inside shared regions. */
    virtual perf::CoreSharePolicy corePolicy() const = 0;

    /**
     * React to one monitoring interval by mutating the layout.
     *
     * @param layout In/out current layout.
     * @param obs This interval's observations, indexed by AppId.
     * @param now_s Simulated time (for time-based penalties).
     */
    virtual void adjust(machine::RegionLayout &layout,
                        const std::vector<AppObservation> &obs,
                        double now_s) = 0;

    /** Reset any internal controller state (new run). */
    virtual void reset() {}

    /**
     * Actuation feedback: whether the layout produced by the last
     * adjust() actually took effect on the knobs (`false` under an
     * injected actuation fault — the live layout then differs from
     * the intent). Strategies keeping a model of "the allocation I
     * set" must reconcile here; the default ignores the signal.
     */
    virtual void onActuation(bool applied) { (void)applied; }

    /**
     * Attach the telemetry scope decisions are reported through.
     * The simulator sets this every run (and re-points it at the
     * current epoch while tracing), so schedulers never need to.
     */
    void setObsScope(obs::Scope scope) { obs_ = std::move(scope); }

  protected:
    /** The attached telemetry scope (null sinks by default). */
    const obs::Scope &obsScope() const { return obs_; }

    /** Split observations into LC and BE app id lists. */
    static void splitKinds(const std::vector<AppObservation> &apps,
                           std::vector<machine::AppId> &lc,
                           std::vector<machine::AppId> &be);

    /**
     * PARTIES' resource-kind rotation: try kind
     * (start + attempt) % kNumResourceKinds for attempt 0, 1, ...
     * until `move(kind)` reports that a unit moved. How the
     * position advances afterwards is the caller's algorithm.
     *
     * @return The attempt that moved, or -1 when no kind could.
     */
    template <typename Move>
    static int tryKindsInRotation(int start, Move &&move)
    {
        for (int attempt = 0; attempt < machine::kNumResourceKinds;
             ++attempt) {
            if (move(machine::kAllResourceKinds[static_cast<std::size_t>(
                    (start + attempt) % machine::kNumResourceKinds)]))
                return attempt;
        }
        return -1;
    }

  private:
    obs::Scope obs_;
};

} // namespace ahq::sched

#endif // AHQ_SCHED_SCHEDULER_HH
