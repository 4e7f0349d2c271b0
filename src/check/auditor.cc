/**
 * @file
 * InvariantAuditor implementation.
 */

#include "check/auditor.hh"

#include <cmath>
#include <cstring>
#include <sstream>

#include "sched/arq.hh"
#include "sched/scheduler.hh"

namespace ahq::check
{

using machine::kAllResourceKinds;
using machine::RegionId;
using machine::RegionLayout;
using machine::ResourceKind;

namespace
{

/** Record cap: a broken run would otherwise flood memory. */
constexpr std::size_t kMaxRecorded = 256;

/** Tolerance for reconstructed floating-point identities. */
constexpr double kEps = 1e-9;

bool
in01(double v)
{
    return std::isfinite(v) && v >= -kEps && v <= 1.0 + kEps;
}

std::string
describeRegion(const RegionLayout &layout, RegionId id)
{
    std::ostringstream os;
    os << "region " << id << " ('" << layout.region(id).name
       << "')";
    return os.str();
}

/** Whether two layouts hold identical per-region resources. */
bool
sameRes(const RegionLayout &a, const RegionLayout &b)
{
    if (a.numRegions() != b.numRegions())
        return false;
    for (int r = 0; r < a.numRegions(); ++r) {
        if (!(a.region(r).res == b.region(r).res))
            return false;
    }
    return true;
}

} // namespace

InvariantAuditor::InvariantAuditor(Mode mode, obs::Scope scope)
    : mode_(mode), obs_(std::move(scope))
{
}

void
InvariantAuditor::report(const char *check, std::string detail,
                         int epoch, double now_s)
{
    ++total_;
    if (violations_.size() < kMaxRecorded)
        violations_.push_back({check, detail, epoch, now_s});
    if (obs_.metrics != nullptr) {
        obs_.count("check.violations");
        obs_.count(std::string("check.violations.") + check);
    }
    if (obs_.tracing()) {
        obs::Event ev("violation");
        ev.str("check", check).str("detail", detail).num("t", now_s);
        obs_.atEpoch(epoch).emit(ev);
    }
    if (mode_ == Mode::Strict) {
        throw InvariantViolation(
            {check, std::move(detail), epoch, now_s});
    }
}

void
InvariantAuditor::beginRun(const RegionLayout &initial, double now_s)
{
    havePreMove_ = false;
    banUntil_.clear();
    if (mode_ == Mode::Off)
        return;
    checkLayout(initial, -1, now_s);
}

void
InvariantAuditor::checkLayout(const RegionLayout &layout, int epoch,
                              double now_s)
{
    if (mode_ == Mode::Off)
        return;

    for (int r = 0; r < layout.numRegions(); ++r) {
        const machine::Region &region = layout.region(r);
        if (!region.res.nonNegative()) {
            report("capacity.non_negative",
                   describeRegion(layout, r) + " holds " +
                       region.res.toString(),
                   epoch, now_s);
        }
        if (!region.shared && region.members.size() != 1) {
            report("capacity.region_shape",
                   describeRegion(layout, r) + " is isolated but "
                       "has " +
                       std::to_string(region.members.size()) +
                       " members",
                   epoch, now_s);
        }
    }

    const auto allocated = layout.allocated();
    if (!allocated.fitsWithin(layout.available())) {
        report("capacity.fits",
               "allocated " + allocated.toString() +
                   " exceeds available " +
                   layout.available().toString(),
               epoch, now_s);
    }

    for (machine::AppId app : layout.allApps()) {
        if (layout.reachable(app, ResourceKind::Cores) < 1 ||
            layout.reachable(app, ResourceKind::LlcWays) < 1) {
            report("capacity.reachable",
                   "app " + std::to_string(app) +
                       " reaches no core or no LLC way",
                   epoch, now_s);
        }
    }
}

void
InvariantAuditor::afterDecision(const sched::Scheduler &scheduler,
                                const RegionLayout &before,
                                const RegionLayout &after, int epoch,
                                double now_s, bool degraded_inputs)
{
    if (mode_ == Mode::Off)
        return;

    checkLayout(after, epoch, now_s);

    if (after.allocated() != before.allocated()) {
        report("capacity.conserved",
               "decision changed the allocated total from " +
                   before.allocated().toString() + " to " +
                   after.allocated().toString(),
               epoch, now_s);
    }

    const auto *arq = dynamic_cast<const sched::Arq *>(&scheduler);
    if (arq == nullptr || after.numRegions() != before.numRegions())
        return;

    // Per-region unit deltas of this decision.
    int moved_units = 0;
    RegionId gainer = machine::kNoRegion;
    for (int r = 0; r < after.numRegions(); ++r) {
        for (ResourceKind kind : kAllResourceKinds) {
            const int d = after.region(r).res.get(kind) -
                before.region(r).res.get(kind);
            if (d > 0) {
                moved_units += d;
                gainer = r;
            }
        }
    }

    if (moved_units > 1) {
        report("arq.single_move",
               "ARQ moved " + std::to_string(moved_units) +
                   " units in one interval",
               epoch, now_s);
    }

    const std::string action =
        arq->lastAction() != nullptr ? arq->lastAction() : "";

    // A decision consuming a dropped (stale-repeat) sample must not
    // steer: ARQ's contract under degraded inputs is to skip, never
    // to move a unit or judge/cancel the previous move.
    if (degraded_inputs &&
        (action == "move" || action == "rollback")) {
        report("fault.no_stale_decision",
               "ARQ chose '" + action +
                   "' on an interval with dropped samples",
               epoch, now_s);
    }

    // Bans derived from rollbacks observed in *earlier* intervals:
    // while a ban is active the banned region must not be selected
    // as a victim, i.e. must not donate in a "move". (A banned
    // region may still *return* a unit when a move that benefited
    // it gets rolled back — bans constrain FINDVICTIMREGION only.)
    if (action == "move") {
        for (const auto &[region, until] : banUntil_) {
            if (now_s >= until || region >= before.numRegions())
                continue;
            for (ResourceKind kind : kAllResourceKinds) {
                const int d = after.region(region).res.get(kind) -
                    before.region(region).res.get(kind);
                if (d < 0) {
                    std::ostringstream os;
                    os << describeRegion(before, region)
                       << " is banned until t=" << until
                       << " s but donated " << -d << " "
                       << machine::toString(kind) << " at t="
                       << now_s;
                    report("arq.ban_honored", os.str(), epoch,
                           now_s);
                }
            }
        }
    }
    if (action == "move") {
        preMove_ = before;
        havePreMove_ = true;
    } else if (action == "rollback") {
        if (havePreMove_) {
            bool exact =
                after.numRegions() == preMove_.numRegions();
            for (int r = 0; exact && r < after.numRegions(); ++r) {
                exact = after.region(r).res ==
                    preMove_.region(r).res;
            }
            if (!exact) {
                report("arq.rollback_exact",
                       "rollback did not restore the "
                       "pre-adjustment allocation",
                       epoch, now_s);
            }
            havePreMove_ = false;
        }
        if (gainer != machine::kNoRegion) {
            banUntil_[gainer] = now_s + sched::kArqBanSeconds;
        }
    }
}

void
InvariantAuditor::afterActuation(const RegionLayout &intended,
                                 const RegionLayout &applied,
                                 bool ok, int epoch, double now_s)
{
    if (mode_ == Mode::Off)
        return;

    if (ok) {
        if (!sameRes(applied, intended)) {
            report("fault.reconciled",
                   "actuation reported ok but the applied layout "
                   "differs from the intended one",
                   epoch, now_s);
        }
        return;
    }

    // A failed actuation must still leave the knobs in a valid
    // state: capacity invariants hold and the allocated totals are
    // conserved (partial applies flip whole resource kinds, so the
    // per-kind sums cannot change).
    checkLayout(applied, epoch, now_s);
    if (applied.allocated() != intended.allocated()) {
        report("fault.reconciled",
               "failed actuation changed the allocated total from " +
                   intended.allocated().toString() + " to " +
                   applied.allocated().toString(),
               epoch, now_s);
    }
}

void
InvariantAuditor::checkEntropy(const core::EntropyReport &report_in,
                               double ri, bool has_lc, bool has_be,
                               int epoch, double now_s)
{
    if (mode_ == Mode::Off)
        return;

    auto bad_range = [&](const char *what, double v) {
        std::ostringstream os;
        os << what << " = " << v << " outside [0, 1]";
        report("entropy.range", os.str(), epoch, now_s);
    };
    if (!in01(report_in.eLc))
        bad_range("E_LC", report_in.eLc);
    if (!in01(report_in.eBe))
        bad_range("E_BE", report_in.eBe);
    if (!in01(report_in.eS))
        bad_range("E_S", report_in.eS);

    for (std::size_t i = 0; i < report_in.lcDetail.size(); ++i) {
        const core::LcBreakdown &b = report_in.lcDetail[i];
        if (!in01(b.tolerance) || !in01(b.interference) ||
            !in01(b.remainingTolerance) || !in01(b.intolerable)) {
            report("entropy.breakdown_range",
                   "lc app " + std::to_string(i) +
                       " has an Eq. 1-4 term outside [0, 1]",
                   epoch, now_s);
        }
        // Eq. 3-4: ReT_i > 0 requires A_i >= R_i, Q_i > 0 requires
        // R_i >= A_i, so the two can never be positive together.
        if (b.remainingTolerance > kEps && b.intolerable > kEps) {
            std::ostringstream os;
            os << "lc app " << i << " has ReT = "
               << b.remainingTolerance << " and Q = "
               << b.intolerable << " simultaneously";
            report("entropy.ret_q_exclusive", os.str(), epoch,
                   now_s);
        }
        if ((b.remainingTolerance > kEps &&
             b.tolerance < b.interference - kEps) ||
            (b.intolerable > kEps &&
             b.interference < b.tolerance - kEps)) {
            report("entropy.ret_q_exclusive",
                   "lc app " + std::to_string(i) +
                       " ReT/Q inconsistent with A_i vs R_i",
                   epoch, now_s);
        }
    }

    // Eq. 7, including the degenerate single-class scenarios.
    double expected;
    if (has_lc && !has_be)
        expected = report_in.eLc;
    else if (!has_lc && has_be)
        expected = report_in.eBe;
    else if (!has_lc && !has_be)
        expected = 0.0;
    else
        expected = ri * report_in.eLc + (1.0 - ri) * report_in.eBe;
    if (std::abs(report_in.eS - expected) > kEps) {
        std::ostringstream os;
        os << "E_S = " << report_in.eS << " but RI weighting gives "
           << expected;
        report("entropy.weighting", os.str(), epoch, now_s);
    }
}

void
InvariantAuditor::afterEpoch(const core::EntropyReport &report_in,
                             double ri, bool has_lc, bool has_be,
                             int epoch, double now_s)
{
    if (mode_ == Mode::Off)
        return;
    checkEntropy(report_in, ri, has_lc, has_be, epoch, now_s);
}

} // namespace ahq::check
