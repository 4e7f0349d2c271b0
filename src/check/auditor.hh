/**
 * @file
 * The InvariantAuditor: continuous audits of scheduler decisions
 * and simulator epochs.
 *
 * The auditor rides the same obs::Scope plumbing the tracing layer
 * threads through SimulationConfig. The epoch simulator calls
 * afterDecision() after every scheduler adjustment and afterEpoch()
 * after every entropy computation; the randomized sweep driver in
 * tests/check/ additionally aims the component checks (checkLayout,
 * checkEntropy) at adversarial inputs.
 *
 * With Mode::Off every hook is one branch; in Mode::Log violations
 * are recorded, counted (`check.violations`) and emitted as
 * schema-versioned JSONL `violation` events while tracing; in
 * Mode::Strict the first violation throws InvariantViolation.
 */

#ifndef AHQ_CHECK_AUDITOR_HH
#define AHQ_CHECK_AUDITOR_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "check/check.hh"
#include "core/entropy.hh"
#include "machine/layout.hh"
#include "obs/scope.hh"

namespace ahq::sched
{
class Scheduler;
}

namespace ahq::check
{

/**
 * Audits the allocation, entropy-accounting and controller-FSM
 * invariants of one simulation run. One auditor instance per run;
 * not shared across threads (each parallel scenario job owns its
 * own, exactly like its RNG).
 */
class InvariantAuditor
{
  public:
    /**
     * @param mode Audit mode (Off disables every hook).
     * @param scope Telemetry destination for violation events and
     *        the check.violations counter (optional).
     */
    explicit InvariantAuditor(Mode mode, obs::Scope scope = {});

    /** Whether any auditing happens at all. */
    bool enabled() const { return mode_ != Mode::Off; }

    Mode mode() const { return mode_; }

    /**
     * Start auditing a run: validate the initial layout and reset
     * the controller-tracking state.
     */
    void beginRun(const machine::RegionLayout &initial, double now_s);

    /**
     * Audit one scheduler decision (layout before vs after
     * Scheduler::adjust). Runs the capacity checks on the new
     * layout plus the ARQ FSM-legality checks when the scheduler
     * is an ARQ instance.
     *
     * @param degraded_inputs Whether any observation fed into this
     *        decision was a stale repeat (fault injection); an ARQ
     *        move/rollback on such inputs violates
     *        fault.no_stale_decision.
     */
    void afterDecision(const sched::Scheduler &scheduler,
                       const machine::RegionLayout &before,
                       const machine::RegionLayout &after, int epoch,
                       double now_s, bool degraded_inputs = false);

    /**
     * Audit one actuation outcome (fault injection): an `ok`
     * actuation must have applied exactly the intended layout, and
     * a failed one must still leave a capacity-valid layout whose
     * allocated totals match the intent (per-kind conservation of
     * partial applies) — the reconciliation invariant.
     */
    void afterActuation(const machine::RegionLayout &intended,
                        const machine::RegionLayout &applied,
                        bool ok, int epoch, double now_s);

    /**
     * Audit one simulator epoch's entropy accounting.
     *
     * @param report The interval's entropy report.
     * @param ri Relative importance used for E_S.
     * @param has_lc Whether any LC observations entered the report.
     * @param has_be Whether any BE observations entered the report.
     */
    void afterEpoch(const core::EntropyReport &report, double ri,
                    bool has_lc, bool has_be, int epoch,
                    double now_s);

    // ---- component checks (also driven directly by tests) -------

    /** Capacity invariants of one layout. */
    void checkLayout(const machine::RegionLayout &layout, int epoch,
                     double now_s);

    /** Entropy range / consistency invariants of one report. */
    void checkEntropy(const core::EntropyReport &report, double ri,
                      bool has_lc, bool has_be, int epoch,
                      double now_s);

    /**
     * Violations recorded so far (capped at 256 entries; the
     * counter below keeps the true total).
     */
    const std::vector<Violation> &violations() const
    {
        return violations_;
    }

    /** Total violations observed, including past the record cap. */
    std::size_t violationCount() const { return total_; }

  private:
    /**
     * Record one violation: append, count, emit the JSONL event,
     * and throw InvariantViolation in strict mode.
     */
    void report(const char *check, std::string detail, int epoch,
                double now_s);

    Mode mode_;
    obs::Scope obs_;

    std::vector<Violation> violations_;
    std::size_t total_ = 0;

    // ---- ARQ FSM tracking ---------------------------------------

    /** Layout in force before the most recent ARQ "move". */
    machine::RegionLayout preMove_{machine::ResourceVector{}};
    bool havePreMove_ = false;

    /** Region id -> ban expiry derived from observed rollbacks. */
    std::map<machine::RegionId, double> banUntil_;
};

} // namespace ahq::check

#endif // AHQ_CHECK_AUDITOR_HH
