/**
 * @file
 * FaultPlan parsing and validation.
 */

#include "fault/plan.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/trace_reader.hh"

namespace ahq::fault
{

namespace
{

[[noreturn]] void
fail(const std::string &where, const std::string &what)
{
    throw std::runtime_error(where + ": " + what);
}

double
probability(const obs::TraceEvent &ev, const char *key, double def,
            const std::string &where)
{
    const double v = ev.num(key, def);
    if (!(v >= 0.0 && v <= 1.0)) {
        std::ostringstream os;
        os << key << " = " << v << " outside [0, 1]";
        fail(where, os.str());
    }
    return v;
}

int
nonNegativeInt(const obs::TraceEvent &ev, const char *key, int def,
               const std::string &where)
{
    const double v =
        ev.num(key, static_cast<double>(def));
    if (!(v >= 0.0) || std::floor(v) != v) {
        std::ostringstream os;
        os << key << " = " << v << " is not a non-negative integer";
        fail(where, os.str());
    }
    return static_cast<int>(v);
}

} // namespace

bool
MeasurementFault::appliesTo(int app) const
{
    if (apps.empty())
        return true;
    return std::find(apps.begin(), apps.end(), app) != apps.end();
}

bool
FaultPlan::perturbsNodes() const
{
    return measurement_.has_value() || actuation_.has_value() ||
        !spikes_.empty();
}

FaultPlan
FaultPlan::fromStream(std::istream &in, const std::string &name)
{
    FaultPlan plan;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;
        const std::string where =
            name + ":" + std::to_string(lineno);

        obs::TraceEvent ev;
        try {
            ev = obs::parseTraceLine(line);
        } catch (const std::exception &e) {
            fail(where, e.what());
        }

        const std::string kind = ev.str("fault");
        if (kind.empty())
            fail(where, "missing 'fault' field");

        if (kind == "measurement") {
            if (plan.measurement_.has_value())
                fail(where, "duplicate measurement directive");
            MeasurementFault m;
            m.pDrop = probability(ev, "p_drop", 0.0, where);
            m.extraSigma = ev.num("extra_sigma", 0.0);
            if (!(m.extraSigma >= 0.0))
                fail(where, "extra_sigma must be >= 0");
            for (double a : ev.nums("apps")) {
                if (!(a >= 0.0) || std::floor(a) != a)
                    fail(where, "apps entries must be app ids >= 0");
                m.apps.push_back(static_cast<int>(a));
            }
            plan.measurement_ = std::move(m);
        } else if (kind == "actuation") {
            if (plan.actuation_.has_value())
                fail(where, "duplicate actuation directive");
            ActuationFault a;
            a.pFail = probability(ev, "p_fail", 0.0, where);
            a.retries = nonNegativeInt(ev, "retries", 0, where);
            a.pRetryFail =
                probability(ev, "p_retry_fail", 0.5, where);
            const std::string mode = ev.str("mode", "noop");
            if (mode == "noop")
                a.mode = ActuationFault::Mode::Noop;
            else if (mode == "partial")
                a.mode = ActuationFault::Mode::Partial;
            else
                fail(where, "mode must be 'noop' or 'partial', got '" +
                     mode + "'");
            plan.actuation_ = a;
        } else if (kind == "load_spike") {
            LoadSpike s;
            s.app = nonNegativeInt(ev, "app", -1, where);
            s.fromS = ev.num("from_s", -1.0);
            s.untilS = ev.num("until_s", -1.0);
            s.factor = ev.num("factor", 0.0);
            if (!(s.fromS >= 0.0))
                fail(where, "from_s must be >= 0");
            if (!(s.untilS > s.fromS))
                fail(where, "until_s must be > from_s");
            if (!(s.factor > 0.0))
                fail(where, "factor must be > 0");
            plan.spikes_.push_back(s);
        } else if (kind == "node_crash") {
            NodeCrash c;
            c.node = nonNegativeInt(ev, "node", -1, where);
            c.atS = ev.num("at_s", -1.0);
            if (!(c.atS >= 0.0))
                fail(where, "at_s must be >= 0");
            plan.crashes_.push_back(c);
        } else {
            fail(where, "unknown fault kind '" + kind +
                 "' (expected measurement, actuation, load_spike "
                 "or node_crash)");
        }
    }
    return plan;
}

FaultPlan
FaultPlan::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in.is_open())
        throw std::runtime_error("cannot open fault plan: " + path);
    return fromStream(in, path);
}

FaultPlan
FaultPlan::builtinChaos()
{
    FaultPlan plan;
    MeasurementFault m;
    m.pDrop = 0.08;
    m.extraSigma = 0.10;
    plan.measurement_ = std::move(m);
    ActuationFault a;
    a.pFail = 0.15;
    a.mode = ActuationFault::Mode::Partial;
    a.retries = 2;
    a.pRetryFail = 0.5;
    plan.actuation_ = a;
    plan.spikes_.push_back({0, 3.0, 6.0, 1.5});
    return plan;
}

} // namespace ahq::fault
