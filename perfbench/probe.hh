/**
 * @file
 * Tracing for the benchmark's traced mode, built only from the
 * simulator's public API so that nothing under src/ changes:
 *
 *  - ProbeScheduler, a forwarding proxy around a real scheduler
 *    that timestamps every adjust() (the decide layer and the
 *    epoch-to-epoch interval) and can keep each epoch's layout and
 *    observations for the replay below;
 *  - replayRun, which feeds one recorded run's epochs, in order, into
 *    a fresh ContentionModel (reproducing the simulator's memo hit
 *    and miss sequence), then times the queueing, entropy and
 *    attribution calls the epoch loop makes on the same inputs.
 */

#ifndef AHQBENCH_PROBE_HH
#define AHQBENCH_PROBE_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/epoch_sim.hh"
#include "sched/scheduler.hh"

namespace ahqbench
{

/** Monotonic nanoseconds (steady_clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds elapsed since a nowNs() reading. */
inline double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** Linear-interpolated quantile of v, q in [0, 1]; 0 when empty. */
double quantile(std::vector<double> v, double q);

/** quantile(v, 0.5). */
double median(std::vector<double> v);

/**
 * Forwarding proxy scheduler. Every call goes to the wrapped
 * scheduler; adjust() is bracketed by two clock reads and also
 * forwards the telemetry scope the simulator attached to the proxy,
 * so the wrapped scheduler emits exactly the events it would emit
 * unwrapped. With keepInputs the proxy also copies the layout and
 * core policy in force each epoch and the observations each
 * adjust() receives — what Replay needs.
 */
class ProbeScheduler final : public ahq::sched::Scheduler
{
  public:
    ProbeScheduler(std::unique_ptr<ahq::sched::Scheduler> inner,
                   bool keep_inputs);

    std::string name() const override { return inner_->name(); }

    ahq::machine::RegionLayout initialLayout(
        const ahq::machine::MachineConfig &config,
        const std::vector<ahq::sched::AppObservation> &apps) override;

    ahq::perf::CoreSharePolicy corePolicy() const override
    {
        return inner_->corePolicy();
    }

    void adjust(ahq::machine::RegionLayout &layout,
                const std::vector<ahq::sched::AppObservation> &obs,
                double now_s) override;

    void reset() override;

    void onActuation(bool applied) override
    {
        inner_->onActuation(applied);
    }

    /** nowNs() at entry of each adjust(), epochs 1..E-1. */
    const std::vector<std::int64_t> &adjustStartNs() const
    {
        return starts_;
    }

    /** Wall time of each adjust(), ns. */
    const std::vector<std::int64_t> &decideNs() const
    {
        return decide_;
    }

    /** keepInputs: layout in force in epoch e (index e). */
    const std::vector<ahq::machine::RegionLayout> &layouts() const
    {
        return layouts_;
    }

    /** keepInputs: core policy in force in epoch e. */
    const std::vector<ahq::perf::CoreSharePolicy> &policies() const
    {
        return policies_;
    }

    /**
     * keepInputs: observations of epoch e (index e), as delivered to
     * the adjust() of epoch e + 1; the last epoch's never are.
     */
    const std::vector<std::vector<ahq::sched::AppObservation>> &
    observations() const
    {
        return obs_;
    }

    /**
     * Host time of the last run, estimated from the proxy alone:
     * reset() to the last adjust() entry, plus that run's median
     * epoch interval for the final epoch, which no scheduler call
     * closes.
     */
    double runNs() const;

  private:
    std::unique_ptr<ahq::sched::Scheduler> inner_;
    bool keep_;
    std::int64_t resetNs_ = 0;
    std::vector<std::int64_t> starts_;
    std::vector<std::int64_t> decide_;
    std::vector<ahq::machine::RegionLayout> layouts_;
    std::vector<ahq::perf::CoreSharePolicy> policies_;
    std::vector<std::vector<ahq::sched::AppObservation>> obs_;
};

/** Sums a Replay gathers over every run it is given. */
struct ReplayStats
{
    long long epochs = 0;

    /** Contention-model evaluations, memo hits, host time. */
    long long evals = 0;
    long long hits = 0;
    double hitNs = 0.0;
    double missNs = 0.0;

    /** perf::sojournPercentileApprox calls (one per LC app-epoch). */
    long long sojournCalls = 0;
    double sojournNs = 0.0;

    /** Sum of the percentiles computed (keeps the calls observable). */
    double sojournSum = 0.0;

    /** core::computeEntropy calls (one per epoch). */
    long long entropyCalls = 0;
    double entropyNs = 0.0;

    /** InterferenceAttributor::attribute calls (post-warmup). */
    long long attributeCalls = 0;
    double attributeNs = 0.0;
    long long attributeEvals = 0;

    /** Output checks that failed, one line each. */
    std::vector<std::string> failures;
};

/**
 * Replays recorded runs. For each epoch e of a run it evaluates
 * (layouts[e], node.demandsAt(e * dt), policies[e]) into a
 * ContentionModel built fresh for the run, exactly as the
 * simulator's epoch loop does, and classifies the call as a memo hit
 * or miss by the model's hit counter. On epochs whose observations
 * were recorded it then times the queueing percentile of every LC
 * app, the epoch's entropy, and (post-warmup) a counterfactual
 * attribution — checking that each victim's shares sum to its R_i.
 * When the run kept its per-epoch records, every replayed outcome
 * and epoch E_S must equal the simulator's bit for bit.
 */
void replayRun(const ahq::cluster::Node &node,
               const ahq::cluster::SimulationConfig &config,
               const ProbeScheduler &probe,
               const ahq::cluster::SimulationResult &result,
               ReplayStats &stats);

} // namespace ahqbench

#endif // AHQBENCH_PROBE_HH
