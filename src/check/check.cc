/**
 * @file
 * Audit modes and the registry of named checks.
 */

#include "check/check.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace ahq::check
{

Mode
modeFromString(const std::string &name)
{
    std::string low = name;
    std::transform(low.begin(), low.end(), low.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                   });
    if (low.empty() || low == "off" || low == "0")
        return Mode::Off;
    if (low == "log")
        return Mode::Log;
    if (low == "strict")
        return Mode::Strict;
    throw std::invalid_argument(
        "unknown check mode: '" + name +
        "' (expected off, log or strict)");
}

const char *
toString(Mode mode)
{
    switch (mode) {
      case Mode::Off:
        return "off";
      case Mode::Log:
        return "log";
      case Mode::Strict:
        return "strict";
    }
    return "off";
}

Mode
modeFromEnv()
{
    const char *env = std::getenv("AHQ_CHECK");
    return modeFromString(env != nullptr ? env : "");
}

InvariantViolation::InvariantViolation(Violation violation)
    : std::runtime_error("invariant violated: " + violation.check +
                         ": " + violation.detail),
      violation_(std::move(violation))
{
}

const std::vector<CheckInfo> &
registeredChecks()
{
    static const std::vector<CheckInfo> checks{
        {"capacity.non_negative", "§IV",
         "every region's cores / LLC ways / MB units are >= 0"},
        {"capacity.fits", "§IV",
         "the sum of region resources never exceeds the machine's "
         "available resources (no oversubscription)"},
        {"capacity.conserved", "§IV",
         "a scheduler decision neither creates nor destroys "
         "resource units (the allocated total is unchanged)"},
        {"capacity.reachable", "§IV",
         "every member application can reach at least one core and "
         "one LLC way through its regions"},
        {"capacity.region_shape", "§IV",
         "isolated regions hold exactly one member application, "
         "disjoint from the shared region's resources"},
        {"entropy.range", "Eq. 5-7",
         "E_LC, E_BE and E_S are finite and lie in [0, 1]"},
        {"entropy.breakdown_range", "Eq. 1-4",
         "per-app A_i, R_i, ReT_i and Q_i lie in [0, 1]"},
        {"entropy.ret_q_exclusive", "Eq. 3-4",
         "ReT_i and Q_i are mutually exclusive and consistent with "
         "the A_i / R_i ordering"},
        {"entropy.weighting", "Eq. 7",
         "E_S equals RI * E_LC + (1 - RI) * E_BE, degenerating to "
         "the present class when only one class runs"},
        {"arq.single_move", "Alg. 1",
         "ARQ moves at most one resource unit per monitoring "
         "interval"},
        {"arq.rollback_exact", "Alg. 1",
         "a rollback restores the pre-adjustment allocation "
         "bit-for-bit"},
        {"arq.ban_honored", "Alg. 1",
         "a penalty-banned victim region donates nothing for the "
         "full ban window (60 s by default)"},
        {"fault.no_stale_decision", "fault injection",
         "no ARQ move/rollback consumes a dropped (stale-repeat) "
         "sample; degraded intervals must skip"},
        {"fault.reconciled", "fault injection",
         "after any actuation outcome the live layout is valid, "
         "conserves allocated totals, and matches the intent "
         "whenever the actuation reported success"},
    };
    return checks;
}

bool
isRegisteredCheck(const std::string &name)
{
    const auto &checks = registeredChecks();
    return std::any_of(checks.begin(), checks.end(),
                       [&](const CheckInfo &c) {
                           return c.name == name;
                       });
}

} // namespace ahq::check
