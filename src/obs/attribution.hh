/**
 * @file
 * Interference attribution: who is hurting my LC app, and through
 * which resource?
 *
 * The entropy pipeline measures *that* an LC app suffered
 * interference (R_i = 1 - TL_i0/TL_i1, Eq. 2) but not *who*
 * inflicted it. The InterferenceAttributor closes that gap with
 * counterfactual evaluations of the contention model: for each
 * co-runner j it re-evaluates the epoch with j's demand removed
 * (threads and arrival rate zeroed, layout unchanged) and reads how
 * much each victim's effective ways, bandwidth dilation and core
 * grant recover. The recoveries are normalized per victim so the
 * per-(culprit, resource) shares sum exactly to the victim's
 * measured R_i — an additive decomposition of the epoch's
 * interference.
 *
 * Shares accumulate into an AttributionLedger keyed
 * (victim, culprit, resource). Ledger merges are commutative in
 * structure and deterministic when applied in a fixed order (node
 * order, like FleetAccumulator), which keeps the serial≡parallel
 * byte-identity contract at any --jobs.
 */

#ifndef AHQ_OBS_ATTRIBUTION_HH
#define AHQ_OBS_ATTRIBUTION_HH

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/entropy.hh"
#include "machine/layout.hh"
#include "perf/contention.hh"

namespace ahq::obs
{

/** Resource channel a culprit hurt a victim through. */
enum class InterferenceResource
{
    /** Shared-region LLC way stealing. */
    Ways = 0,

    /** Memory-bandwidth dilation. */
    Bandwidth = 1,

    /** Core contention (grant shrink + timeslice stretch). */
    Cores = 2,

    /**
     * Residual the counterfactuals could not assign to any
     * co-runner (noise, overhead, queueing carryover). Keeps the
     * decomposition conservative: shares always sum to R_i.
     */
    Other = 3,
};

/** Stable lower-case name for trace events and CLI tables. */
const char *interferenceResourceName(InterferenceResource r);

/** Culprit id used for the unattributed residual pseudo-culprit. */
inline constexpr machine::AppId kNoiseCulprit = -1;

/** Name the residual pseudo-culprit renders as. */
inline constexpr const char *kNoiseCulpritName = "(noise)";

/** One victim←culprit share for one epoch. */
struct AttributionShare
{
    machine::AppId victim = 0;

    /** Co-runner blamed; kNoiseCulprit for the residual. */
    machine::AppId culprit = kNoiseCulprit;

    InterferenceResource resource = InterferenceResource::Other;

    /** Fraction of the victim's R_i assigned to this pair. */
    double share = 0.0;
};

/**
 * Decomposes per-victim interference into per-(culprit, resource)
 * shares by counterfactual contention-model evaluation.
 *
 * Owns its own ContentionModel (the model keeps mutable scratch, so
 * sharing the simulator's instance would be a data race waiting to
 * happen); construct one attributor per run, like the auditor and
 * the fault injector. An epoch's n counterfactuals share the layout
 * and the policy, so attribute() solves them in one lock-step
 * evaluateBatchInto() call, each bit for bit the sequential result.
 * It reuses internal buffers, so a warm epoch allocates nothing.
 */
class InterferenceAttributor
{
  public:
    explicit InterferenceAttributor(machine::MachineConfig config,
                                    perf::ContentionTraits traits = {});

    /**
     * Decompose each LC victim's measured interference into
     * additive per-(culprit, resource) shares.
     *
     * @param layout The layout the epoch ran under.
     * @param demands The demands the epoch's evaluation saw.
     * @param policy Core-share policy of the epoch's scheduler.
     * @param base The epoch's real evaluation outcomes.
     * @param lc_ids LC app ids, in the order lc_detail was built.
     * @param lc_detail Per-LC entropy breakdown (R_i source).
     * @param out Shares, victim-major then culprit-major; rows with
     *            zero share are omitted; victims with R_i <= 0
     *            produce no rows. Per victim the emitted shares sum
     *            to R_i exactly (the last share absorbs the
     *            floating-point residual of the normalization).
     */
    void attribute(const machine::RegionLayout &layout,
                   const std::vector<perf::AppDemand> &demands,
                   perf::CoreSharePolicy policy,
                   const std::vector<perf::PerfOutcome> &base,
                   const std::vector<machine::AppId> &lc_ids,
                   const std::vector<core::LcBreakdown> &lc_detail,
                   std::vector<AttributionShare> &out);

    /** Counterfactual evaluations performed so far (telemetry). */
    long long evaluations() const { return evals_; }

  private:
    perf::ContentionModel model_;
    /** Counterfactual j: the epoch's demands with app j vacated. */
    std::vector<std::vector<perf::AppDemand>> cfDemands_;
    std::vector<std::vector<perf::PerfOutcome>> cfOut_;
    std::vector<double> raw_;
    long long evals_ = 0;
};

/** One accumulated ledger row. */
struct AttributionRow
{
    std::string victim;
    std::string culprit;
    std::string resource;

    /** Summed share-of-R_i over the contributing epochs. */
    double share = 0.0;

    /** Epochs that contributed to this row. */
    long long epochs = 0;
};

/**
 * Accumulated per-(victim, culprit, resource) interference shares.
 *
 * Structurally a commutative monoid under merge(): cells are keyed,
 * so the result of merging shards is independent of which shard saw
 * which epoch. For bitwise determinism, callers merge shards in a
 * fixed order (Fleet merges in node order), the same discipline as
 * FleetAccumulator.
 */
class AttributionLedger
{
  public:
    /** Fold one epoch share into the ledger. */
    void add(const std::string &victim, const std::string &culprit,
             const std::string &resource, double share);

    /** Fold another ledger in (commutative, associative). */
    void merge(const AttributionLedger &other);

    bool empty() const { return cells_.empty(); }
    std::size_t size() const { return cells_.size(); }

    /** All rows, key-sorted (victim, culprit, resource). */
    std::vector<AttributionRow> rows() const;

    /** Total share accumulated against one victim. */
    double victimTotal(const std::string &victim) const;

    /**
     * The victim's top (culprit, resource) by accumulated share as
     * "culprit:resource" — the blame string cluster_migrate events
     * cite. Empty when the victim has no rows. The residual
     * pseudo-culprit is only blamed when nothing real was.
     */
    std::string topBlame(const std::string &victim) const;

  private:
    struct Cell
    {
        double share = 0.0;
        long long epochs = 0;
    };

    using Key = std::tuple<std::string, std::string, std::string>;
    std::map<Key, Cell> cells_;
};

} // namespace ahq::obs

#endif // AHQ_OBS_ATTRIBUTION_HH
