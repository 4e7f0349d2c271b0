/**
 * @file
 * Heracles-style baseline (Lo et al., ISCA 2015), the precursor the
 * paper's related-work section positions PARTIES/CLITE/ARQ against:
 * a threshold-based controller that decides each interval whether
 * BE work may grow, must hold, or must shrink, based on the LC
 * applications' load and latency slack.
 *
 * Not part of the paper's measured comparison, but included so
 * downstream users can extend the evaluation (and because the
 * library's scheduler suite should cover the lineage). The
 * adaptation to multiple LC apps follows the obvious reading: the
 * binding LC app (minimum slack) drives the decision.
 */

#ifndef AHQ_SCHED_HERACLES_HH
#define AHQ_SCHED_HERACLES_HH

#include "sched/scheduler.hh"

namespace ahq::sched
{

/**
 * Threshold controller: one LC pool, one BE pool, BE pool grows or
 * shrinks one resource unit per interval based on the binding LC
 * slack.
 */
class Heracles : public Scheduler
{
  public:
    std::string name() const override { return "Heracles"; }

    machine::RegionLayout
    initialLayout(const machine::MachineConfig &config,
                  const std::vector<AppObservation> &apps) override;

    perf::CoreSharePolicy
    corePolicy() const override
    {
        // Inside the LC pool the LC apps share with priority
        // semantics; the BE pool is BE-only.
        return perf::CoreSharePolicy::LcPriority;
    }

    void adjust(machine::RegionLayout &layout,
                const std::vector<AppObservation> &obs,
                double now_s) override;

    void reset() override;

  private:
    int fsm = 0; // resource rotation for grow/shrink steps

    /** The LC pool (region 0) and BE pool (region 1) ids. */
    static constexpr machine::RegionId kLcPool = 0;
    static constexpr machine::RegionId kBePool = 1;
};

} // namespace ahq::sched

#endif // AHQ_SCHED_HERACLES_HH
