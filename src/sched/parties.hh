/**
 * @file
 * PARTIES (Chen, Delimitrou, Martinez — ASPLOS 2019), the paper's
 * primary baseline: QoS-aware strict partitioning for multiple
 * interactive services.
 *
 * Re-implemented from the published algorithm as Ah-Q describes it:
 * every LC application owns a strictly isolated partition and the BE
 * applications share the leftover pool. Each monitoring interval the
 * controller computes per-app slack = (target - p95)/target, upsizes
 * the partitions of violated apps by one unit of their finite-state
 * machine's current resource type (cores -> LLC ways -> memory
 * bandwidth, rotating when a type cannot be adjusted), and
 * tentatively downsizes the most over-provisioned app when everyone
 * has ample slack, reverting if the downsize caused a violation (the
 * "spikes" Ah-Q's Fig. 13 shows).
 */

#ifndef AHQ_SCHED_PARTIES_HH
#define AHQ_SCHED_PARTIES_HH

#include <vector>

#include "sched/scheduler.hh"

namespace ahq::sched
{

/**
 * The PARTIES strict-partitioning controller.
 */
class Parties : public Scheduler
{
  public:
    std::string name() const override { return "PARTIES"; }

    machine::RegionLayout
    initialLayout(const machine::MachineConfig &config,
                  const std::vector<AppObservation> &apps) override;

    perf::CoreSharePolicy
    corePolicy() const override
    {
        // Only the BE pool is shared; policy is immaterial there.
        return perf::CoreSharePolicy::FairShare;
    }

    void adjust(machine::RegionLayout &layout,
                const std::vector<AppObservation> &obs,
                double now_s) override;

    void reset() override;

    /**
     * Actuation feedback (fault injection). A downsize trial whose
     * move never reached the knobs is cancelled — there is nothing
     * on the machine to revert or commit, so watching it would end
     * in a phantom pool-to-partition move. Failed upsizes need no
     * bookkeeping: the violation persists and is retried next
     * interval from the live layout.
     */
    void onActuation(bool applied) override;

  private:
    // Per-app state, AppId-indexed and sized by initialLayout().

    /** FSM position in the resource rotation. */
    std::vector<int> fsmIndex;

    /** Intervals until the next tentative downsize. */
    std::vector<int> cooldown;

    /** Consecutive comfortable intervals. */
    std::vector<int> comfort;

    /** Upsize scratch: this interval's violated apps. */
    std::vector<const AppObservation *> violatedBuf;

    /** An in-flight tentative downsize being watched. */
    struct Trial
    {
        bool active = false;
        machine::AppId app = machine::kNoApp;
        machine::ResourceKind kind = machine::ResourceKind::Cores;
        int watchLeft = 0;
    };
    Trial trial;

    /**
     * Whether `trial` was started by the most recent adjust() (the
     * only trial an actuation failure can have cancelled on-knob).
     */
    bool trialJustStarted = false;

    /** Upsize one violated app by one unit; true on success. */
    bool upsizeApp(machine::RegionLayout &layout,
                   const std::vector<AppObservation> &obs,
                   machine::AppId app);

    /** Report one decision through the attached telemetry scope. */
    void recordMove(const char *action, machine::AppId app,
                    machine::ResourceKind kind,
                    machine::RegionId from,
                    machine::RegionId to) const;

    /** The BE pool region id (the shared region). */
    static machine::RegionId bePool(const machine::RegionLayout &l);
};

} // namespace ahq::sched

#endif // AHQ_SCHED_PARTIES_HH
