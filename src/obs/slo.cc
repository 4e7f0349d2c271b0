/**
 * @file
 * Multi-window SLO burn-rate monitor implementation.
 */

#include "obs/slo.hh"

#include <algorithm>
#include <cassert>

namespace ahq::obs
{

SloMonitor::SloMonitor(int num_apps, SloTraits traits)
    : traits_(traits),
      budget_(std::max(1e-9, 1.0 - traits.targetAvailability)),
      apps_(static_cast<std::size_t>(std::max(0, num_apps)))
{
    assert(traits_.fastWindowEpochs > 0);
    assert(traits_.slowWindowEpochs > traits_.fastWindowEpochs);
    assert(traits_.burnThreshold > 0.0);
    assert(traits_.clearRatio > 0.0 && traits_.clearRatio <= 1.0);
    for (AppState &s : apps_) {
        s.bits.assign(
            static_cast<std::size_t>(traits_.slowWindowEpochs), 0);
    }
    // Every epoch after the first window folds one burn rate per
    // window, so full windows read them from tables of the same
    // expression instead of dividing.
    for (int k = 0; k <= traits_.fastWindowEpochs; ++k)
        fullFastBurn_.push_back(burn(k, traits_.fastWindowEpochs));
    for (int k = 0; k <= traits_.slowWindowEpochs; ++k)
        fullSlowBurn_.push_back(burn(k, traits_.slowWindowEpochs));
}

SloAlertTransition
SloMonitor::observe(int app, int epoch, bool violated)
{
    AppState &s = apps_[static_cast<std::size_t>(app)];
    const int fast = traits_.fastWindowEpochs;
    const int slow = traits_.slowWindowEpochs;

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
        if (s.seen >= fast && tr.burnFast >= traits_.burnThreshold &&
            tr.burnSlow >= traits_.burnThreshold) {
            s.active = true;
            s.raisedEpoch = epoch;
            ++summary_.raises;
            ++summary_.activeAtEnd;
            ++summary_.alertEpochs;
            tr.kind = SloAlertTransition::Kind::Raise;
        }
    } else {
        const double clear_at =
            traits_.burnThreshold * traits_.clearRatio;
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

bool
SloMonitor::active(int app) const
{
    return apps_[static_cast<std::size_t>(app)].active;
}

SloSummary
SloMonitor::summary() const
{
    return summary_;
}

} // namespace ahq::obs
