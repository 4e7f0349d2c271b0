/**
 * @file
 * ARQ: the paper's scheduling strategy (Section IV, Algorithm 1).
 *
 * ARQ divides the node into one shared region (usable by everyone;
 * LC apps take priority there) plus one isolated region per LC app
 * (initially empty). Every monitoring interval it:
 *
 *  1. computes the system entropy E_S and the remaining-tolerance
 *     array ReT from the observations;
 *  2. if the previous adjustment *increased* E_S, cancels it and
 *     bans the previous victim region from being penalised for the
 *     next 60 s (escaping local optima);
 *  3. otherwise moves one resource unit from a victim region (an LC
 *     app with ReT > 0.1 that still owns isolated resources, else
 *     the shared region) to a beneficiary region (the isolated
 *     region of the LC app with the smallest ReT when that is below
 *     0.05, else the shared region), choosing the resource type with
 *     a PARTIES-style finite state machine;
 *  4. when victim and beneficiary are both the shared region the
 *     system is in equilibrium and nothing moves.
 */

#ifndef AHQ_SCHED_ARQ_HH
#define AHQ_SCHED_ARQ_HH

#include <vector>

#include "core/entropy.hh"
#include "sched/scheduler.hh"

namespace ahq::sched
{

/**
 * How long a cancelled victim region is banned, seconds (the
 * paper's 60 s). The invariant auditor checks the ban against it.
 */
constexpr double kArqBanSeconds = 60.0;

/**
 * The ARQ settings bench/ablation_arq varies (defaults are the
 * paper's).
 */
struct ArqConfig
{
    /** Relative importance of LC over BE in E_S. */
    double relativeImportance = core::kDefaultRelativeImportance;

    /** Ablation: disable the rollback-on-entropy-increase step. */
    bool rollbackEnabled = true;

    /**
     * Ablation: when false, LC apps may not use the shared region
     * (the layout degenerates to PARTIES-style full isolation with a
     * BE pool).
     */
    bool sharedRegionEnabled = true;
};

/**
 * The ARQ feedback controller.
 */
class Arq : public Scheduler
{
  public:
    explicit Arq(ArqConfig config = {});

    std::string name() const override { return "ARQ"; }

    machine::RegionLayout
    initialLayout(const machine::MachineConfig &config,
                  const std::vector<AppObservation> &apps) override;

    perf::CoreSharePolicy
    corePolicy() const override
    {
        return perf::CoreSharePolicy::LcPriority;
    }

    void adjust(machine::RegionLayout &layout,
                const std::vector<AppObservation> &obs,
                double now_s) override;

    void reset() override;

    /**
     * Actuation feedback (fault injection). A failed `move` is
     * forgotten — it never reached the knobs, so judging it by the
     * next E_S would roll back a phantom adjustment and mis-move a
     * unit. A failed `rollback` re-arms the controller so the still
     * live cancelled move is retried next interval.
     */
    void onActuation(bool applied) override;

    /**
     * What the last adjust() decided: "hold", "move", "rollback",
     * "settle" or "skip" (degraded inputs — see sampleValid); null
     * before the first interval. The invariant auditor (src/check/)
     * keys its FSM-legality checks off this.
     */
    const char *lastAction() const { return lastAction_; }

  private:
    ArqConfig cfg;

    double prevEs = 1.0;
    bool isAdjust = false;
    int settleLeft = 0;
    const char *lastAction_ = nullptr;

    struct Move
    {
        machine::ResourceKind kind = machine::ResourceKind::Cores;
        machine::RegionId from = machine::kNoRegion;
        machine::RegionId to = machine::kNoRegion;
    };
    Move lastMove;

    /**
     * Time until which each region may not be penalised
     * (RegionId-indexed, sized by initialLayout(); -inf = never
     * banned).
     */
    std::vector<double> banUntil;

    /** Per-region FSM position for findVictimResource. */
    std::vector<int> fsmIndex;

    core::EntropyReport report;

    /**
     * Per-app (ReT_i, Q_i) entry of the ReT array. The array is a
     * flat vector indexed by AppId (struct-of-decisions hot path:
     * the per-epoch monitor fills it by index with no node lookups
     * or allocations once warm); `lc` marks the LC entries — BE
     * slots stay defaulted and are skipped by every traversal.
     */
    struct Tolerance
    {
        double ret = 0.0; // remaining tolerance
        double q = 0.0;   // intolerable interference
        bool lc = false;  // entry belongs to an LC app
    };

    /** ReT array scratch, rebuilt every interval (AppId-indexed). */
    std::vector<Tolerance> retBuf;

    /** Entropy-input scratch, rebuilt every interval. */
    std::vector<core::LcObservation> lcBuf;
    std::vector<core::BeObservation> beBuf;

    /** `arq_decision` array scratch: LC ids, their ReT and Q. */
    std::vector<int> traceApps;
    std::vector<double> traceRet, traceQ;

    /**
     * Last ReT computed from a *delivered* measurement per app
     * (AppId-indexed; `lc` doubles as the presence flag). When an
     * app's sample is dropped the controller steers (well, holds)
     * on this instead of the stale repeat.
     */
    std::vector<Tolerance> lastGoodRet;

    /** Victim-search ordering scratch: (ReT, AppId) pairs. */
    mutable std::vector<std::pair<double, machine::AppId>> orderBuf;

    void
    remainingToleranceInto(const std::vector<AppObservation> &obs,
                           std::vector<Tolerance> &ret) const;

    machine::RegionId
    findVictimRegion(const machine::RegionLayout &layout,
                     const std::vector<Tolerance> &ret,
                     double now_s) const;

    machine::RegionId
    findBeneficiaryRegion(const machine::RegionLayout &layout,
                          const std::vector<Tolerance> &ret) const;

    /** Algorithm 1's AdjustResource; true when a unit moved. */
    bool adjustResource(machine::RegionLayout &layout,
                        const std::vector<Tolerance> &ret,
                        double now_s);
};

} // namespace ahq::sched

#endif // AHQ_SCHED_ARQ_HH
