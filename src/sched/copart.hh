/**
 * @file
 * CoPart-style fairness baseline (Park, Park, Baek — EuroSys 2019),
 * from the paper's related work: coordinated partitioning of LLC
 * and memory bandwidth driven by *fairness* — equalising the
 * colocated applications' slowdowns — rather than by QoS targets or
 * overall experience.
 *
 * Included to make the paper's closing contrast measurable ("Dunn
 * cares more about system fairness while ARQ focuses on both
 * fairness and overall system performance"): under this controller
 * every app converges to a similar slowdown, which is generally
 * *not* the E_S optimum.
 *
 * Slowdown here is the app-appropriate notion: observed tail over
 * ideal tail for LC apps, solo IPC over observed IPC for BE apps.
 * Every interval one resource unit moves from the least-slowed
 * app's partition to the most-slowed app's partition (strict
 * isolation, PARTIES-shaped layout).
 */

#ifndef AHQ_SCHED_COPART_HH
#define AHQ_SCHED_COPART_HH

#include <vector>

#include "sched/scheduler.hh"

namespace ahq::sched
{

/**
 * Fairness-driven strict partitioner.
 */
class CoPart : public Scheduler
{
  public:
    std::string name() const override { return "CoPart"; }

    machine::RegionLayout
    initialLayout(const machine::MachineConfig &config,
                  const std::vector<AppObservation> &apps) override;

    perf::CoreSharePolicy
    corePolicy() const override
    {
        return perf::CoreSharePolicy::FairShare;
    }

    void adjust(machine::RegionLayout &layout,
                const std::vector<AppObservation> &obs,
                double now_s) override;

    void reset() override;

    /** The slowdown notion the controller equalises (exposed). */
    static double slowdownOf(const AppObservation &o);

  private:
    /**
     * Per-app FSM over resource kinds, PARTIES-style (AppId-indexed,
     * sized by initialLayout()).
     */
    std::vector<int> fsmIndex;
};

} // namespace ahq::sched

#endif // AHQ_SCHED_COPART_HH
