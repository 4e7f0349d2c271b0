/**
 * @file
 * CLITE (Patel & Tiwari — HPCA 2020), the paper's second baseline:
 * Bayesian-optimisation-driven strict partitioning.
 *
 * Re-implemented from the published approach as Ah-Q describes it:
 * the partitioning configuration space (per-group shares of cores,
 * LLC ways and memory bandwidth, one group per LC app plus one BE
 * pool) is explored online. Each monitoring interval measures the
 * objective of the live configuration; a Gaussian-process surrogate
 * plus expected-improvement acquisition proposes the next
 * configuration. The objective is CLITE's penalised form: when any
 * LC app violates QoS the score is (fraction of QoS met - 1), i.e.
 * negative; otherwise it is the mean normalised BE performance.
 * After the sampling budget the best configuration is pinned until a
 * load shift triggers re-exploration.
 */

#ifndef AHQ_SCHED_CLITE_HH
#define AHQ_SCHED_CLITE_HH

#include <vector>

#include "sched/gp.hh"
#include "sched/scheduler.hh"
#include "stats/rng.hh"

namespace ahq::sched
{

/**
 * The CLITE Bayesian-optimisation controller.
 */
class Clite : public Scheduler
{
  public:
    Clite();

    std::string name() const override { return "CLITE"; }

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

    /**
     * Actuation feedback (fault injection). CLITE's whole model is
     * "the allocation I deployed": when a deployment fails, the
     * next score must attach to whatever is really on the knobs,
     * so the cached deployment is dropped and re-read from the live
     * layout at the next interval (observed-vs-intended
     * reconciliation).
     */
    void onActuation(bool applied) override;

  private:
    stats::Rng rng;

    /**
     * Persistent surrogate, updated incrementally as samples are
     * scored (one O(window^2) row-append per sample instead of an
     * O(n^3) refit per decision); its factor is reused across the
     * whole candidate pool.
     */
    GaussianProcess gp;

    int numGroups = 0; // LC apps + 1 BE pool
    machine::ResourceVector available;

    /**
     * Samples scored since the last (re-)exploration began, and the
     * best of them: its score and its raw unit allocation. Only a
     * strictly better score replaces the best, so the first of
     * equal maxima wins (std::max_element's rule, NaNs included).
     */
    int samples = 0;
    double bestY = 0.0;
    std::vector<int> bestAlloc;

    /** The configuration currently deployed (awaiting its score). */
    std::vector<int> currentAlloc; // groups x kinds, units
    bool exploiting = false;
    int exploreCount = 0;
    int violationStreak = 0;
    int settleLeft = 0;

    std::vector<double> lastLoads;

    // Decision-loop scratch (reused across intervals so the hot
    // path allocates nothing once warm).
    std::vector<int> candBuf;     // candidate being scored
    std::vector<int> nextBuf;     // best candidate so far
    std::vector<double> xBuf;     // normalised GP input
    std::vector<double> wBuf;     // random-split weights
    std::vector<int> extraBuf;    // random-split remainders
    std::vector<int> violatedBuf; // rebalance: violated groups
    std::vector<int> donorBuf;    // rebalance: donor groups
    std::vector<double> loadsBuf; // load-shift detection

    /** CLITE's penalised objective from this interval's metrics. */
    double objective(const std::vector<AppObservation> &obs) const;

    /** Draw a random feasible allocation (min 1 core/way/group). */
    void randomAllocInto(std::vector<int> &out);

    /** Perturb an allocation by moving a few random units. */
    void perturbAllocInto(const std::vector<int> &base,
                          std::vector<int> &out);

    /**
     * Demand-directed candidate: shift units towards the groups of
     * currently violated LC apps from the slack-rich groups and the
     * BE pool (CLITE's prior-informed sampling).
     */
    void rebalanceAllocInto(const std::vector<int> &base,
                            const std::vector<AppObservation> &obs,
                            std::vector<int> &out);

    /** Normalise an allocation to a [0,1]-ish GP input vector. */
    void normaliseInto(const std::vector<int> &alloc,
                       std::vector<double> &x) const;

    /** Write an allocation into the layout's regions. */
    static void applyAlloc(machine::RegionLayout &layout,
                           const std::vector<int> &alloc);

    /** Read the layout's regions into an allocation vector. */
    static void readAllocInto(const machine::RegionLayout &layout,
                              std::vector<int> &alloc);
};

} // namespace ahq::sched

#endif // AHQ_SCHED_CLITE_HH
