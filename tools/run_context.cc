/**
 * @file
 * The one flag grammar and the one run context: how every `ahq`
 * verb turns its command line into settings, and how every run verb
 * turns the shared run flags into a SimulationConfig plus the
 * telemetry it points at.
 */

#include "cli.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "exec/jobs.hh"
#include "trace/fleet_load.hh"

namespace ahq::cli
{

long long
parseInt(const std::string &s, const std::string &flag, long long min_v,
         long long max_v)
{
    long long v = 0;
    try {
        std::size_t used = 0;
        v = std::stoll(s, &used);
        if (used != s.size())
            throw std::invalid_argument("trailing characters");
    } catch (const std::exception &) {
        throw std::invalid_argument("bad " + flag + ": '" + s +
                                    "' (expected an integer)");
    }
    if (v < min_v || v > max_v) {
        throw std::invalid_argument(
            flag + " must be " +
            (v < min_v ? ">= " + std::to_string(min_v)
                       : "<= " + std::to_string(max_v)) +
            " (got " + s + ")");
    }
    return v;
}

int
parseCount(const std::string &s, const std::string &flag, int min_v,
           int max_v)
{
    return static_cast<int>(parseInt(s, flag, min_v, max_v));
}

double
parseNumber(const std::string &s, const std::string &flag)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(s, &used);
        if (used != s.size())
            throw std::invalid_argument("trailing characters");
        if (!std::isfinite(v))
            throw std::invalid_argument("not finite");
        return v;
    } catch (const std::exception &) {
        throw std::invalid_argument("bad " + flag + ": '" + s +
                                    "' (expected a finite number)");
    }
}

std::string
oneOf(const std::string &value, const std::string &flag,
      const std::vector<std::string> &choices)
{
    if (std::find(choices.begin(), choices.end(), value) !=
        choices.end())
        return value;
    std::string list;
    for (std::size_t i = 0; i < choices.size(); ++i)
        list += (i == 0 ? "" : i + 1 == choices.size() ? " or " : ", ") +
            choices[i];
    throw std::invalid_argument(flag + " must be " + list + " (got " +
                                value + ")");
}

Flags &
Flags::value(const std::string &name,
             std::function<void(const std::string &)> set)
{
    specs_[name] = {true, std::move(set)};
    return *this;
}

Flags &
Flags::toggle(const std::string &name, std::function<void()> set)
{
    specs_[name] = {false, [set = std::move(set)](const std::string &) {
                        set();
                    }};
    return *this;
}

Flags &
Flags::reject(const std::string &name)
{
    specs_.erase(name);
    return *this;
}

std::vector<std::string>
Flags::parse(const std::vector<std::string> &args) const
{
    std::vector<std::string> positional;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        // Positional specs ("app=load", paths) never start with '-'.
        if (arg.empty() || arg[0] != '-') {
            positional.push_back(arg);
            continue;
        }
        const auto eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const auto it = specs_.find(name);
        if (it == specs_.end())
            throw std::invalid_argument(verb_ + " does not accept " +
                                        name);
        const Spec &spec = it->second;
        if (!spec.takesValue) {
            if (eq != std::string::npos) {
                throw std::invalid_argument(name +
                                            " does not take a value");
            }
            spec.set({});
        } else if (eq != std::string::npos) {
            spec.set(arg.substr(eq + 1));
        } else if (i + 1 < args.size()) {
            spec.set(args[++i]);
        } else {
            throw std::invalid_argument(name + " needs a value");
        }
    }
    return positional;
}

std::string
onePath(const std::vector<std::string> &positional)
{
    if (positional.empty())
        throw std::invalid_argument("no trace file given");
    if (positional.size() > 1) {
        throw std::invalid_argument("unexpected argument: " +
                                    positional[1]);
    }
    return positional[0];
}

namespace
{

/** The shared run flags, in usage order. */
const std::vector<std::string> &
sharedRunFlags()
{
    static const std::vector<std::string> flags{
        "--strategy", "--duration",     "--warmup",  "--cores",
        "--ways",     "--bw",           "--seed",    "--percentile",
        "--ri",       "--check",        "--faults",  "--csv",
        "--trace",    "--trace-sample", "--metrics", "--attribute",
        "--slo",      "--profile",      "--jobs"};
    return flags;
}

/** A probability-like flag in [0, 1]; `why` explains the range. */
double
unitInterval(const std::string &v, const std::string &flag,
             const std::string &why)
{
    const double x = parseNumber(v, flag);
    if (x < 0.0 || x > 1.0) {
        throw std::invalid_argument(flag + " must be within [0, 1] (" +
                                    why + "), got " + v);
    }
    return x;
}

bool
honours(const RunVerb &verb, const std::string &flag)
{
    return std::find(verb.honoured.begin(), verb.honoured.end(),
                     flag) != verb.honoured.end();
}

/** The environment variable standing in for an absent flag. */
std::string
envStandIn(const RunVerb &verb, const std::string &flag,
           const char *var)
{
    const char *env = std::getenv(var);
    // AHQ_PROF=0 means off, like an unset variable.
    if (env == nullptr || env[0] == '\0' ||
        (flag == "--profile" && std::string(env) == "0"))
        return {};
    if (!honours(verb, flag)) {
        throw std::invalid_argument(verb.name + " does not accept " +
                                    flag + " (set through " + var +
                                    ")");
    }
    return env;
}

} // namespace

const std::vector<RunVerb> &
runVerbs()
{
    static const std::vector<RunVerb> verbs = [] {
        const auto allBut = [](const std::vector<std::string> &out) {
            std::vector<std::string> in;
            for (const auto &f : sharedRunFlags())
                if (std::find(out.begin(), out.end(), f) == out.end())
                    in.push_back(f);
            return in;
        };
        return std::vector<RunVerb>{
            {"simulate", sharedRunFlags()},
            {"sweep", allBut({"--strategy", "--csv"})},
            {"chaos", allBut({"--strategy", "--csv"})},
            {"oracle",
             {"--cores", "--ways", "--bw", "--percentile", "--ri",
              "--jobs"}},
            {"fleet", allBut({"--csv"})},
            {"experiment design", {"--seed", "--jobs"}},
            {"experiment run",
             allBut({"--strategy", "--duration", "--warmup", "--csv"})},
            {"experiment analyze", {"--seed"}},
            {"experiment verdict", {"--seed"}},
        };
    }();
    return verbs;
}

std::vector<std::string>
parseRunFlags(Flags &flags, SimulateOptions &opt,
              const std::vector<std::string> &args)
{
    const auto verb = std::find_if(
        runVerbs().begin(), runVerbs().end(),
        [&](const RunVerb &v) { return v.name == flags.verb(); });
    if (verb == runVerbs().end())
        throw std::logic_error("not a run verb: " + flags.verb());

    using V = const std::string &;
    flags.value("--strategy", [&](V v) { opt.strategy = v; })
        .value("--duration",
               [&](V v) {
                   opt.durationSeconds = parseNumber(v, "--duration");
                   if (opt.durationSeconds <= 0.0) {
                       throw std::invalid_argument(
                           "--duration must be a positive number of "
                           "seconds (got " + v + ")");
                   }
               })
        .value("--warmup",
               [&](V v) { opt.warmupEpochs = parseCount(v, "--warmup", 0); })
        .value("--cores",
               [&](V v) { opt.cores = parseCount(v, "--cores", 1); })
        .value("--ways", [&](V v) { opt.ways = parseCount(v, "--ways", 1); })
        .value("--bw", [&](V v) { opt.bwUnits = parseCount(v, "--bw", 1); })
        .value("--seed",
               [&](V v) {
                   opt.seed = static_cast<std::uint64_t>(
                       parseInt(v, "--seed", 0));
               })
        .value("--percentile",
               [&](V v) {
                   opt.percentile = parseNumber(v, "--percentile");
                   if (opt.percentile <= 0.0 || opt.percentile >= 1.0) {
                       throw std::invalid_argument(
                           "--percentile must be in (0, 1), got " + v);
                   }
               })
        .value("--ri",
               [&](V v) {
                   opt.ri = unitInterval(v, "--ri",
                                         "Eq. 7 weights E_LC by RI");
               })
        .value("--check",
               [&](V v) {
                   opt.checkMode = check::modeFromString(v);
                   opt.checkModeExplicit = true;
               })
        .value("--faults", [&](V v) { opt.faultsPath = v; })
        .value("--csv", [&](V v) { opt.csvPath = v; })
        .value("--trace", [&](V v) { opt.tracePath = v; })
        .value("--trace-sample",
               [&](V v) {
                   opt.traceSampleRate =
                       unitInterval(v, "--trace-sample",
                                    "the per-epoch keep probability");
               })
        .toggle("--metrics", [&] { opt.dumpMetrics = true; })
        .toggle("--attribute", [&] { opt.attribute = true; })
        .toggle("--slo", [&] { opt.slo = true; })
        .toggle("--profile", [&] { opt.profile = true; })
        .value("--jobs", [&](V v) { opt.jobs = parseCount(v, "--jobs", 1); });
    for (const auto &flag : sharedRunFlags())
        if (!honours(*verb, flag))
            flags.reject(flag);

    auto positional = flags.parse(args);
    if (opt.tracePath.empty())
        opt.tracePath = envStandIn(*verb, "--trace", "AHQ_TRACE");
    if (opt.faultsPath.empty())
        opt.faultsPath = envStandIn(*verb, "--faults", "AHQ_FAULTS");
    if (!opt.profile)
        opt.profile = !envStandIn(*verb, "--profile", "AHQ_PROF").empty();
    return positional;
}

void
addWorkloadShape(Flags &flags, trace::FleetLoadConfig &load)
{
    using V = const std::string &;
    flags
        .value("--nodes",
               [&](V v) { load.numNodes = parseCount(v, "--nodes", 1); })
        .value("--lc", [&](V v) { load.lcPerNode = parseCount(v, "--lc", 1); })
        .value("--be", [&](V v) { load.bePerNode = parseCount(v, "--be", 0); })
        .value("--tenants",
               [&](V v) { load.numTenants = parseCount(v, "--tenants", 1); })
        .value("--zipf", [&](V v) {
            load.zipfSkew = parseNumber(v, "--zipf");
            if (load.zipfSkew < 0.0) {
                throw std::invalid_argument("--zipf must be >= 0 (got " +
                                            v + ")");
            }
        });
}

RunContext::RunContext(const SimulateOptions &options,
                       std::string scenario)
    : opt(options)
{
    if (opt.jobs > 0)
        exec::setDefaultJobs(opt.jobs);
    config.durationSeconds = opt.durationSeconds;
    config.warmupEpochs = opt.warmupEpochs;
    config.seed = opt.seed;
    config.tailPercentile = opt.percentile;
    config.ri = opt.ri;
    config.checkMode = opt.checkMode;
    config.traceSampleRate = opt.traceSampleRate;
    config.attribute = opt.attribute;
    config.slo = opt.slo;
    if (!opt.faultsPath.empty()) {
        plan = fault::FaultPlan::fromFile(opt.faultsPath);
        config.faults = &plan;
    }

    obs::Scope &scope = config.obs;
    scope.scenario = std::move(scenario);
    if (!opt.tracePath.empty()) {
        sink = std::make_unique<obs::FileTraceSink>(opt.tracePath);
        scope.sink = sink.get();
        // Time series record every epoch regardless of
        // --trace-sample, so `ahq timeline` sees the full run even
        // from a heavily sampled trace.
        scope.series = &series;
    }
    if (opt.dumpMetrics || sink || opt.profile)
        scope.metrics = &metrics;
    // Wall-clock fields stay off: a fan-out verb's span-bearing
    // trace must be byte-identical at any --jobs. simulate, which
    // owns its single run, turns them on.
    if (opt.profile)
        scope.prof = &prof;
}

machine::MachineConfig
RunContext::machine() const
{
    return machine::MachineConfig::xeonE52630v4().withAvailable(
        opt.cores, opt.ways, opt.bwUnits);
}

void
RunContext::finish(std::ostream &out, const std::string &tree_title)
{
    if (opt.profile) {
        out << tree_title << "\n";
        printSpanProfile(out, prof, /*wall_times=*/true);
    }
    if (sink) {
        // Series events come last: the folded per-run summaries
        // close the trace deterministically.
        series.flush(config.obs);
        sink->flush();
        out << "trace written to " << sink->path() << "\n";
    }
    if (opt.dumpMetrics)
        metrics.print(out);
}

} // namespace ahq::cli
