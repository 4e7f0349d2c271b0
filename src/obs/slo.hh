/**
 * @file
 * Online SLO burn-rate monitoring.
 *
 * An LC app's SLO here is epoch availability: the fraction of
 * epochs whose measured tail latency meets the elastic QoS target
 * (the same predicate the violation counters use). The monitor
 * tracks each app's violation bits over two sliding windows and
 * computes the *burn rate* — the rate the error budget
 * (1 - the 0.99 availability target) is being consumed, so burn
 * 1.0 means "exactly on budget" and burn 2.0 means "burning twice as
 * fast as the SLO allows". An alert raises when BOTH windows (12 and
 * 96 epochs) burn at or above 2.0 (the fast window gives
 * responsiveness, the slow window suppresses blips) and clears with
 * hysteresis only when both fall below half that — the standard
 * multi-window burn-rate policy, sized in epochs rather than wall
 * time. The policy's numbers are constants of slo.cc.
 *
 * Pure and deterministic: the monitor consumes only (app, epoch,
 * violated) and keeps integer window counts, so alert transitions
 * are a function of the violation bit stream alone — byte-identical
 * trace events at any thread count for free.
 */

#ifndef AHQ_OBS_SLO_HH
#define AHQ_OBS_SLO_HH

#include <vector>

namespace ahq::obs
{

/** What one observe() call did to the app's alert state. */
struct SloAlertTransition
{
    enum class Kind
    {
        None,
        Raise,
        Clear,
    };

    Kind kind = Kind::None;

    /** Burn rates after folding in the epoch's bit. */
    double burnFast = 0.0;
    double burnSlow = 0.0;

    /** Epochs the alert was active (Clear only). */
    int durationEpochs = 0;
};

/** Run-level alert accounting (merge-commutative across nodes). */
struct SloSummary
{
    long long raises = 0;
    long long clears = 0;

    /** Alerts still active when the run ended. */
    long long activeAtEnd = 0;

    /** (app, epoch) pairs spent under an active alert. */
    long long alertEpochs = 0;

    /** Worst fast-window burn rate seen by any app. */
    double worstBurn = 0.0;

    void merge(const SloSummary &o)
    {
        raises += o.raises;
        clears += o.clears;
        activeAtEnd += o.activeAtEnd;
        alertEpochs += o.alertEpochs;
        worstBurn = worstBurn > o.worstBurn ? worstBurn
                                            : o.worstBurn;
    }
};

/**
 * Multi-window burn-rate detector over per-app violation bits.
 *
 * One instance per run; feed every LC app's violation bit every
 * epoch via observe() (epochs must be fed in order per app). BE
 * apps are simply never observed.
 */
class SloMonitor
{
  public:
    explicit SloMonitor(int num_apps);

    /**
     * Fold one epoch's violation bit for one app and report the
     * alert transition it caused, if any.
     */
    SloAlertTransition observe(int app, int epoch, bool violated);

    /** Aggregated accounting over all apps so far. */
    SloSummary summary() const;

  private:
    struct AppState
    {
        std::vector<unsigned char> bits;
        int seen = 0;
        int pos = 0; // seen % the slow window: the ring's next slot
        int fastCount = 0;
        int slowCount = 0;
        bool active = false;
        int raisedEpoch = -1;
    };

    std::vector<AppState> apps_;
    SloSummary summary_;

    /** burn(count, window) by count, for a full window. */
    std::vector<double> fullFastBurn_, fullSlowBurn_;
};

} // namespace ahq::obs

#endif // AHQ_OBS_SLO_HH
