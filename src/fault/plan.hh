/**
 * @file
 * FaultPlan: the declarative description of which faults a run is
 * subjected to.
 *
 * A plan is a JSONL file (one directive per line, `#` comments and
 * blank lines skipped) naming faults at the simulator's injection
 * seams: per-app measurement dropout/extra noise, knob-actuation
 * failures, load spikes layered onto the trace, and node crashes
 * (Fleet runs only). Plans are pure data — all randomness lives in
 * the per-run FaultInjector, which derives its stream from the run
 * seed, so the same seed + the same plan reproduces the same faults
 * bit-for-bit at any thread count. See docs/FAULTS.md for the
 * schema.
 */

#ifndef AHQ_FAULT_PLAN_HH
#define AHQ_FAULT_PLAN_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace ahq::fault
{

/** Measurement dropout / extra noise on per-app samples. */
struct MeasurementFault
{
    /** Per-app, per-epoch probability that the sample is dropped. */
    double pDrop = 0.0;

    /** Extra lognormal sigma applied to samples that survive. */
    double extraSigma = 0.0;

    /** Affected app ids; empty = every app. */
    std::vector<int> apps;

    bool appliesTo(int app) const;
};

/** Knob-actuation failures (CAT/MBA/affinity writes that do not take). */
struct ActuationFault
{
    enum class Mode
    {
        /** The whole decision silently does not take effect. */
        Noop,
        /** Each resource kind independently applies or stays put. */
        Partial,
    };

    /** Probability that an interval's first knob write fails. */
    double pFail = 0.0;

    Mode mode = Mode::Noop;

    /** Retries attempted (with simulated backoff) after a failure. */
    int retries = 0;

    /** Probability that each retry also fails. */
    double pRetryFail = 0.5;
};

/** A multiplicative load surge on one LC app's trace. */
struct LoadSpike
{
    int app = -1;
    double fromS = 0.0;
    double untilS = 0.0;
    double factor = 1.0;

    bool activeAt(double now_s) const
    {
        return now_s >= fromS && now_s < untilS;
    }
};

/** A node crash (Fleet runs re-place the node's apps). */
struct NodeCrash
{
    int node = 0;
    double atS = 0.0;
};

/**
 * A parsed, validated fault plan. Immutable once built; shared
 * read-only across concurrent runs (SimulationConfig holds a
 * pointer, so the plan must outlive every run using it).
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Parse a JSONL plan from a stream. @p name labels errors
     * ("name:line: ...").
     *
     * @throws std::runtime_error on malformed or invalid directives.
     */
    static FaultPlan fromStream(std::istream &in,
                                const std::string &name = "<plan>");

    /**
     * Parse a JSONL plan file.
     * @throws std::runtime_error when the file cannot be opened or a
     *         directive is malformed.
     */
    static FaultPlan fromFile(const std::string &path);

    /**
     * The fixed default plan behind `ahq chaos` and the chaos
     * benchmarks: measurement dropout + extra noise, partial
     * actuation failures with retries, and one mid-run load spike.
     */
    static FaultPlan builtinChaos();

    /**
     * Whether a measurement, actuation or load-spike directive is
     * present: what a node's FaultInjector acts on. Crashes are
     * Fleet::run's alone, so a crash-only plan leaves every node's
     * run on the unfaulted path.
     */
    bool perturbsNodes() const;

    const std::optional<MeasurementFault> &measurement() const
    {
        return measurement_;
    }
    const std::optional<ActuationFault> &actuation() const
    {
        return actuation_;
    }
    const std::vector<LoadSpike> &spikes() const { return spikes_; }
    const std::vector<NodeCrash> &crashes() const { return crashes_; }

  private:
    std::optional<MeasurementFault> measurement_;
    std::optional<ActuationFault> actuation_;
    std::vector<LoadSpike> spikes_;
    std::vector<NodeCrash> crashes_;
};

} // namespace ahq::fault

#endif // AHQ_FAULT_PLAN_HH
