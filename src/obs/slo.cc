/**
 * @file
 * Multi-window SLO burn-rate monitor implementation.
 */

#include "obs/slo.hh"

#include <algorithm>

namespace ahq::obs
{

namespace
{

/** Target fraction of epochs meeting QoS. */
constexpr double kTargetAvailability = 0.99;

/** The error budget: the fraction of epochs allowed to violate. */
constexpr double kBudget = 1.0 - kTargetAvailability;

/** Fast (responsive) window, epochs. */
constexpr int kFastWindowEpochs = 12;

/** Slow (confirming) window, epochs. */
constexpr int kSlowWindowEpochs = 96;
static_assert(kSlowWindowEpochs > kFastWindowEpochs,
              "the fast retiree must still be in the slow ring");

/** Raise when both windows burn at or above this rate. */
constexpr double kBurnThreshold = 2.0;

/**
 * Hysteresis: clear only when both windows burn below
 * kBurnThreshold * kClearRatio, so an alert never flaps across a
 * single boundary epoch.
 */
constexpr double kClearRatio = 0.5;

/** Burn rate of @p count violations in a window of @p epochs. */
double
burn(int count, int epochs)
{
    return (static_cast<double>(count) / epochs) / kBudget;
}

} // namespace

SloMonitor::SloMonitor(int num_apps)
    : apps_(static_cast<std::size_t>(std::max(0, num_apps)))
{
    for (AppState &s : apps_)
        s.bits.assign(static_cast<std::size_t>(kSlowWindowEpochs), 0);
    // Every epoch after the first window folds one burn rate per
    // window, so full windows read them from tables of the same
    // expression instead of dividing.
    for (int k = 0; k <= kFastWindowEpochs; ++k)
        fullFastBurn_.push_back(burn(k, kFastWindowEpochs));
    for (int k = 0; k <= kSlowWindowEpochs; ++k)
        fullSlowBurn_.push_back(burn(k, kSlowWindowEpochs));
}

SloAlertTransition
SloMonitor::observe(int app, int epoch, bool violated)
{
    AppState &s = apps_[static_cast<std::size_t>(app)];
    constexpr int fast = kFastWindowEpochs;
    constexpr int slow = kSlowWindowEpochs;

    // Ring update: retire the bits leaving each window before the
    // new one lands. fast < slow guarantees the fast retiree, at
    // (seen - fast) % slow, has not been overwritten yet. The counts
    // are read and written once: in-place updates of the two
    // adjacent ints stalled the paired load GCC merged them into.
    const auto pos = static_cast<std::size_t>(s.pos);
    const int bit = violated ? 1 : 0;
    int fast_count = s.fastCount + bit, slow_count = s.slowCount + bit;
    if (s.seen >= slow)
        slow_count -= s.bits[pos];
    if (s.seen >= fast) {
        fast_count -= s.bits[static_cast<std::size_t>(
            s.pos >= fast ? s.pos - fast : s.pos + slow - fast)];
    }
    s.bits[pos] = static_cast<unsigned char>(bit);
    s.fastCount = fast_count;
    s.slowCount = slow_count;
    ++s.seen;
    s.pos = s.pos + 1 == slow ? 0 : s.pos + 1;

    SloAlertTransition tr;
    tr.burnFast = s.seen >= fast
        ? fullFastBurn_[static_cast<std::size_t>(s.fastCount)]
        : burn(s.fastCount, s.seen);
    tr.burnSlow = s.seen >= slow
        ? fullSlowBurn_[static_cast<std::size_t>(s.slowCount)]
        : burn(s.slowCount, s.seen);
    summary_.worstBurn = std::max(summary_.worstBurn, tr.burnFast);

    if (!s.active) {
        // Raising needs a full fast window of evidence; both
        // windows must agree the budget is burning too fast.
        if (s.seen >= fast && tr.burnFast >= kBurnThreshold &&
            tr.burnSlow >= kBurnThreshold) {
            s.active = true;
            s.raisedEpoch = epoch;
            ++summary_.raises;
            ++summary_.activeAtEnd;
            ++summary_.alertEpochs;
            tr.kind = SloAlertTransition::Kind::Raise;
        }
    } else {
        constexpr double clear_at = kBurnThreshold * kClearRatio;
        if (tr.burnFast < clear_at && tr.burnSlow < clear_at) {
            s.active = false;
            ++summary_.clears;
            --summary_.activeAtEnd;
            tr.kind = SloAlertTransition::Kind::Clear;
            tr.durationEpochs = epoch - s.raisedEpoch;
            s.raisedEpoch = -1;
        } else {
            ++summary_.alertEpochs;
        }
    }
    return tr;
}

SloSummary
SloMonitor::summary() const
{
    return summary_;
}

} // namespace ahq::obs
