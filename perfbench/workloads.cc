/**
 * @file
 * Workloads and the untraced/traced measurement loops.
 *
 * Every workload is measured in "units": a fixed piece of simulated
 * work, deterministic per seed, whose inputs (load generator, Node
 * curve tables, schedulers) are built first and timed as set-up,
 * then simulated and timed as the run. A run repeats units until
 * its time budget is spent and reports medians over them, so a run's
 * length never changes what a unit simulates: the sim_* outputs of
 * every unit of one seed must match bit for bit.
 */

#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "apps/catalog.hh"
#include "cluster/cluster_sched.hh"
#include "cluster/fleet.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "obs/trace_sink.hh"
#include "probe.hh"
#include "sched/registry.hh"
#include "trace/fleet_load.hh"

namespace ahqbench
{

using namespace ahq;

namespace
{

/** How a unit's schedulers are wrapped. */
enum class Probe
{
    Off,    // the real schedulers, unwrapped
    Timing, // ProbeScheduler proxies recording timestamps only
    Inputs, // proxies that also keep every epoch's replay inputs
};

/**
 * Called once per probed node run, after the unit's simulation has
 * finished and while its node and result are still alive.
 */
using NodeRunFn = std::function<void(
    const cluster::Node &, const cluster::SimulationConfig &,
    const ProbeScheduler &, const cluster::SimulationResult &)>;

/** What one unit built, ran and produced. */
struct Unit
{
    double setupS = 0.0;
    double runS = 0.0;

    /** Nodes whose inputs the set-up built. */
    int nodesBuilt = 0;

    /** Simulated outputs; every unit of one seed must match bitwise. */
    std::vector<double> outputs;

    double meanES = 0.0;
    long long violations = 0;

    std::vector<std::string> failures;
};

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/**
 * Peak resident set size of this process image, MiB: VmHWM, which
 * starts afresh at exec (getrusage's ru_maxrss would include the
 * launcher that exec'd this binary).
 */
double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/**
 * A fresh instance of the strategy, wrapped in a ProbeScheduler
 * unless probe is Off; *slot receives the proxy.
 */
std::unique_ptr<sched::Scheduler>
makeScheduler(const std::string &strategy, Probe probe,
              const ProbeScheduler **slot)
{
    auto s = sched::makeScheduler(strategy);
    if (probe == Probe::Off)
        return s;
    auto p = std::make_unique<ProbeScheduler>(std::move(s),
                                              probe == Probe::Inputs);
    *slot = p.get();
    return p;
}

/** Epoch length, duration and warmup; audits off whatever AHQ_CHECK says. */
cluster::SimulationConfig
simConfig(std::uint64_t seed, int epochs, int warmup)
{
    cluster::SimulationConfig cfg;
    cfg.seed = seed;
    cfg.durationSeconds = epochs * cfg.epochSeconds;
    cfg.warmupEpochs = warmup;
    cfg.checkMode = check::Mode::Off;
    return cfg;
}

/** Fleet-shaped load: diurnal Zipf tenants with flash crowds. */
trace::FleetLoadConfig
fleetLoad(std::uint64_t seed, int nodes)
{
    trace::FleetLoadConfig lc;
    lc.numNodes = nodes;
    lc.seed = seed;
    return lc;
}

/** Threads simulating at once: parallelFor also drains on the caller. */
int
activeThreads(const exec::ThreadPool &pool)
{
    return pool.threads() > 1 ? pool.threads() + 1 : 1;
}

/** Per-node seed, derived the way Fleet::run derives it. */
std::uint64_t
nodeSeed(std::uint64_t seed, int node)
{
    return seed + 0x9e37 * (static_cast<std::uint64_t>(node) + 1);
}

class Workload
{
  public:
    virtual ~Workload() = default;

    /** One end-to-end unit. */
    virtual Unit unit() { return probed(Probe::Off, {}); }

    /**
     * The unit the traced mode wraps in probes; `each` sees every
     * node run when probe is not Off.
     */
    virtual Unit probed(Probe probe, const NodeRunFn &each) = 0;

    virtual double epochsPerUnit() const = 0;
    virtual double nodesPerUnit() const = 0;

    /** Threads simulating at once during a probed unit. */
    virtual int threads() const { return 1; }

    /** Whether the epoch loop runs counterfactual attribution. */
    virtual bool attributes() const { return false; }

    /** One-off output checks against the first unit. */
    virtual void checkOnce(const Unit &ref, std::vector<std::string> &fail)
    {
        (void)ref;
        (void)fail;
    }

    /** Traced mode: the workload's own paired timings, once per pair. */
    virtual void tracedExtra(int pair, std::vector<std::string> &fail)
    {
        (void)pair;
        (void)fail;
    }

    /** Traced mode: the per-layer metrics only this workload has. */
    virtual void layerMetrics(std::map<std::string, double> &m) const
    {
        (void)m;
    }

    /** One line describing the unit's size. */
    virtual std::string describe() const = 0;
};

// ---- steady_node --------------------------------------------------

/**
 * The paper's canonical colocation at constant load under PARTIES,
 * CLITE and ARQ in turn, keeping per-epoch records (the figure-bench
 * shape). Constant load repeats the contention model's inputs, so
 * nearly every epoch hits its memo: decisions and record copies do
 * the work.
 */
class SteadyNode final : public Workload
{
  public:
    static constexpr int kEpochs = 3600;

    explicit SteadyNode(std::uint64_t seed)
        : cfg_(simConfig(seed, kEpochs, 20))
    {
    }

    Unit probed(Probe probe, const NodeRunFn &each) override
    {
        return pass(probe, each, true);
    }

    double epochsPerUnit() const override { return 3.0 * kEpochs; }
    double nodesPerUnit() const override { return 3.0; }

    void tracedExtra(int pair, std::vector<std::string> &fail) override
    {
        // keepEpochs on vs off, alternating which runs first.
        Unit on, off;
        if (pair % 2 == 0) {
            on = pass(Probe::Off, {}, true);
            off = pass(Probe::Off, {}, false);
        } else {
            off = pass(Probe::Off, {}, false);
            on = pass(Probe::Off, {}, true);
        }
        recordsOnS_.push_back(on.runS);
        recordsOffS_.push_back(off.runS);
        if (!sameBits(on.outputs, off.outputs))
            fail.push_back("keepEpochs=false changed simulated outputs");
    }

    void layerMetrics(std::map<std::string, double> &m) const override
    {
        const double on = median(recordsOnS_);
        if (on > 0.0)
            m["cluster.records_share"] = 1.0 - median(recordsOffS_) / on;
    }

    std::string describe() const override
    {
        return "canonical node (xapian 50%, moses 20%, img-dnn 20%, "
               "stream), PARTIES+CLITE+ARQ x " +
            std::to_string(kEpochs) + " epochs, keepEpochs=true, 1 thread";
    }

  private:
    cluster::SimulationConfig cfg_;
    std::vector<double> recordsOnS_, recordsOffS_;

    Unit pass(Probe probe, const NodeRunFn &each, bool keep_epochs)
    {
        static const char *const kStrategies[] = {"PARTIES", "CLITE",
                                                  "ARQ"};
        Unit u;
        const std::int64_t t0 = nowNs();
        const cluster::Node node(
            machine::MachineConfig::xeonE52630v4(),
            {cluster::lcAt(apps::xapian(), 0.5),
             cluster::lcAt(apps::moses(), 0.2),
             cluster::lcAt(apps::imgDnn(), 0.2),
             cluster::be(apps::stream())});
        std::vector<std::unique_ptr<sched::Scheduler>> scheds;
        std::vector<const ProbeScheduler *> probes(3, nullptr);
        for (std::size_t s = 0; s < 3; ++s)
            scheds.push_back(makeScheduler(kStrategies[s], probe, &probes[s]));
        u.setupS = secondsSince(t0);
        u.nodesBuilt = 1;

        cluster::SimulationConfig cfg = cfg_;
        cfg.keepEpochs = keep_epochs;
        const cluster::EpochSimulator sim(node, cfg);
        double es = 0.0;
        for (std::size_t s = 0; s < 3; ++s) {
            const std::int64_t t1 = nowNs();
            const cluster::SimulationResult res = sim.run(*scheds[s]);
            u.runS += secondsSince(t1);
            u.outputs.push_back(res.meanES);
            u.outputs.push_back(res.violations);
            es += res.meanES;
            u.violations += res.violations;
            if (probe != Probe::Off)
                each(node, cfg, *probes[s], res);
        }
        u.meanES = es / 3.0;
        return u;
    }
};

// ---- diurnal_fleet ------------------------------------------------

/**
 * Fleet::run over fleet-shaped ARQ nodes under diurnal, flash-crowd
 * tenant load with streaming accumulation (keepEpochs=false). The
 * load changes every epoch, so the contention memo misses every
 * epoch and the model's fixed point does most of the work.
 */
class DiurnalFleet final : public Workload
{
  public:
    static constexpr int kNodes = 128;
    static constexpr int kEpochs = 480; // one 240 s diurnal period

    DiurnalFleet(std::uint64_t seed, exec::ThreadPool &pool)
        : cfg_(simConfig(seed, kEpochs, 20)), load_(fleetLoad(seed, kNodes)),
          pool_(pool)
    {
        cfg_.keepEpochs = false;
    }

    Unit probed(Probe probe, const NodeRunFn &each) override
    {
        return run(probe, each, pool_);
    }

    double epochsPerUnit() const override
    {
        return static_cast<double>(kNodes) * kEpochs;
    }
    double nodesPerUnit() const override { return kNodes; }

    int threads() const override { return activeThreads(pool_); }

    void checkOnce(const Unit &ref, std::vector<std::string> &fail) override
    {
        exec::ThreadPool one(1);
        if (!sameBits(run(Probe::Off, {}, one).outputs, ref.outputs))
            fail.push_back("pooled E_S differs between a 1-thread pool "
                           "and the workload's pool");
    }

    std::string describe() const override
    {
        return std::to_string(kNodes) + " fleet-shaped ARQ nodes x " +
            std::to_string(kEpochs) +
            " epochs, diurnal+flash tenant load, keepEpochs=false, "
            "Fleet::run on " +
            std::to_string(pool_.threads()) + " pool workers";
    }

  private:
    cluster::SimulationConfig cfg_;
    trace::FleetLoadConfig load_;
    exec::ThreadPool &pool_;

    Unit run(Probe probe, const NodeRunFn &each, exec::ThreadPool &pool)
    {
        Unit u;
        const auto mc = machine::MachineConfig::xeonE52630v4();
        std::vector<const ProbeScheduler *> probes(kNodes, nullptr);
        const std::int64_t t0 = nowNs();
        const trace::FleetLoadGenerator gen(load_);
        std::vector<cluster::Node> nodes;
        nodes.reserve(kNodes);
        cluster::Fleet fleet;
        for (int n = 0; n < kNodes; ++n) {
            nodes.emplace_back(mc, cluster::fleetNodeApps(gen, n));
            fleet.addNode(nodes.back(),
                          makeScheduler("ARQ", probe,
                                        &probes[static_cast<std::size_t>(n)]));
        }
        u.setupS = secondsSince(t0);
        u.nodesBuilt = kNodes;

        const std::int64_t t1 = nowNs();
        const cluster::Fleet::FleetResult r = fleet.run(cfg_, &pool);
        u.runS = secondsSince(t1);

        u.outputs = {r.eS, r.eLc, r.eBe, static_cast<double>(r.violations)};
        u.meanES = r.eS;
        u.violations = r.violations;
        for (const auto &res : r.nodes) {
            if (!res.epochs.empty()) {
                u.failures.push_back("epochs retained with keepEpochs=false");
                break;
            }
        }
        if (probe != Probe::Off) {
            for (std::size_t n = 0; n < nodes.size(); ++n)
                each(nodes[n], cfg_, *probes[n], r.nodes[n]);
        }
        return u;
    }
};

// ---- observed_node ------------------------------------------------

/**
 * The fleet-shaped nodes run one after another through
 * EpochSimulator::run with every opt-in seam on: attribution, SLO
 * burn rate, time series, a 5%-sampled trace into memory and audits
 * in log mode. The simulated outputs must equal the plain run's.
 */
class ObservedNode final : public Workload
{
  public:
    static constexpr int kNodes = 8;
    static constexpr int kEpochs = 480;

    explicit ObservedNode(std::uint64_t seed)
        : cfg_(simConfig(seed, kEpochs, 20)), load_(fleetLoad(seed, kNodes))
    {
        cfg_.keepEpochs = false;
    }

    Unit probed(Probe probe, const NodeRunFn &each) override
    {
        return pass(probe, each, true);
    }

    double epochsPerUnit() const override
    {
        return static_cast<double>(kNodes) * kEpochs;
    }
    double nodesPerUnit() const override { return kNodes; }
    bool attributes() const override { return true; }

    void checkOnce(const Unit &ref, std::vector<std::string> &fail) override
    {
        if (!sameBits(pass(Probe::Off, {}, false).outputs, ref.outputs))
            fail.push_back("observed E_S/violations differ from the "
                           "plain run's");
    }

    void tracedExtra(int pair, std::vector<std::string> &fail) override
    {
        (void)fail;
        Unit seams, plain;
        if (pair % 2 == 0) {
            seams = pass(Probe::Off, {}, true);
            plain = pass(Probe::Off, {}, false);
        } else {
            plain = pass(Probe::Off, {}, false);
            seams = pass(Probe::Off, {}, true);
        }
        seamsS_.push_back(seams.runS);
        plainS_.push_back(plain.runS);
    }

    void layerMetrics(std::map<std::string, double> &m) const override
    {
        const double plain = median(plainS_);
        if (plain > 0.0)
            m["obs.overhead_ratio"] = median(seamsS_) / plain;
        if (counts_) {
            m["obs.trace_events"] = (*counts_)[0];
            m["obs.trace_bytes"] = (*counts_)[1];
            m["obs.series_points"] = (*counts_)[2];
        }
    }

    std::string describe() const override
    {
        return std::to_string(kNodes) + " fleet-shaped ARQ nodes x " +
            std::to_string(kEpochs) +
            " epochs in series, attribution+SLO+series+5% trace+audit "
            "log, 1 thread";
    }

  private:
    cluster::SimulationConfig cfg_;
    trace::FleetLoadConfig load_;
    std::vector<double> seamsS_, plainS_;

    /** Trace events, trace bytes and series points of one pass. */
    std::optional<std::vector<double>> counts_;

    Unit pass(Probe probe, const NodeRunFn &each, bool seams)
    {
        Unit u;
        const auto mc = machine::MachineConfig::xeonE52630v4();
        std::vector<const ProbeScheduler *> probes(kNodes, nullptr);
        const std::int64_t t0 = nowNs();
        const trace::FleetLoadGenerator gen(load_);
        std::vector<cluster::Node> nodes;
        std::vector<std::unique_ptr<sched::Scheduler>> scheds;
        nodes.reserve(kNodes);
        for (int n = 0; n < kNodes; ++n) {
            nodes.emplace_back(mc, cluster::fleetNodeApps(gen, n));
            scheds.push_back(makeScheduler(
                "ARQ", probe, &probes[static_cast<std::size_t>(n)]));
        }
        obs::BufferTraceSink sink;
        obs::MetricsRegistry metrics;
        obs::TimeSeriesRegistry series;
        u.setupS = secondsSince(t0);
        u.nodesBuilt = kNodes;

        std::vector<cluster::SimulationResult> results;
        for (int n = 0; n < kNodes; ++n) {
            cluster::SimulationConfig cfg = cfg_;
            cfg.seed = nodeSeed(cfg_.seed, n);
            if (seams) {
                cfg.attribute = true;
                cfg.slo = true;
                cfg.traceSampleRate = 0.05;
                cfg.checkMode = check::Mode::Log;
                cfg.obs.sink = &sink;
                cfg.obs.metrics = &metrics;
                cfg.obs.series = &series;
                cfg.obs.scenario = "node" + std::to_string(n);
            }
            const auto un = static_cast<std::size_t>(n);
            const cluster::EpochSimulator sim(nodes[un], cfg);
            const std::int64_t t1 = nowNs();
            results.push_back(sim.run(*scheds[un]));
            u.runS += secondsSince(t1);
            const auto &res = results.back();
            u.outputs.push_back(res.meanES);
            u.outputs.push_back(res.violations);
            u.meanES += res.meanES / kNodes;
            u.violations += res.violations;
        }

        if (seams) {
            if (metrics.counter("check.violations") != 0.0)
                u.failures.push_back("audit violations in log mode");
            obs::Scope count_only;
            count_only.metrics = &metrics;
            series.flush(count_only);
            const std::vector<double> counts = {
                static_cast<double>(sink.lineCount()),
                static_cast<double>(sink.str().size()),
                metrics.counter("ts.points")};
            if (!counts_)
                counts_ = counts;
            else if (!sameBits(*counts_, counts))
                u.failures.push_back("trace/series counts differ between "
                                     "runs of one seed");
        }
        if (probe != Probe::Off) {
            for (std::size_t n = 0; n < nodes.size(); ++n)
                each(nodes[n], cfg_, *probes[n], results[n]);
        }
        return u;
    }
};

// ---- cluster_rebalance --------------------------------------------

/**
 * ClusterScheduler::run over fleet-shaped nodes for several
 * measurement/rebalance rounds. Many short trial simulations make
 * node set-up and the fan-out/fold/merge path dominate. The cluster
 * builds its own schedulers, so its probed unit is a batch of
 * trial-shaped runs (each node's colocation for trialSeconds),
 * built and run on the pool and timed from outside.
 */
class ClusterRebalance final : public Workload
{
  public:
    static constexpr int kNodes = 64;

    ClusterRebalance(std::uint64_t seed, exec::ThreadPool &pool)
        : base_(simConfig(seed, 1, 0)), load_(fleetLoad(seed, kNodes)),
          pool_(pool)
    {
        cc_.rounds = 6;
        // Rebalance after every round: with the default threshold
        // whether a round searches for a migration depends on the
        // seed, and so would the work one unit does.
        cc_.spreadThreshold = 0.0;
        trial_ = base_;
        trial_.durationSeconds = cc_.trialSeconds;
        trial_.warmupEpochs = cc_.trialWarmupEpochs;
        trial_.keepEpochs = false;
    }

    Unit unit() override
    {
        Unit u;
        const auto mc = machine::MachineConfig::xeonE52630v4();
        const std::int64_t t0 = nowNs();
        const trace::FleetLoadGenerator gen(load_);
        cluster::ClusterScheduler cs(cc_, "ARQ");
        for (int n = 0; n < kNodes; ++n)
            cs.addNode(mc, cluster::fleetNodeApps(gen, n));
        u.setupS = secondsSince(t0);
        u.nodesBuilt = kNodes;

        const std::int64_t t1 = nowNs();
        const cluster::ClusterResult r = cs.run(base_, &pool_);
        u.runS = secondsSince(t1);

        u.outputs = {r.eS, static_cast<double>(r.violations),
                     static_cast<double>(r.migrations.size())};
        u.outputs.insert(u.outputs.end(), r.roundES.begin(), r.roundES.end());
        u.meanES = r.eS;
        u.violations = r.violations;
        clusterES_ = r.eS;
        clusterViolations_ = static_cast<double>(r.violations);
        migrations_ = static_cast<double>(r.migrations.size());
        return u;
    }

    Unit probed(Probe probe, const NodeRunFn &each) override
    {
        Unit u;
        const auto mc = machine::MachineConfig::xeonE52630v4();
        const std::int64_t t0 = nowNs();
        const trace::FleetLoadGenerator gen(load_);
        std::vector<std::vector<cluster::ColocatedApp>> colocations;
        for (int n = 0; n < kNodes; ++n)
            colocations.push_back(cluster::fleetNodeApps(gen, n));
        u.setupS = secondsSince(t0);
        u.nodesBuilt = kNodes;

        std::vector<std::optional<cluster::Node>> nodes(kNodes);
        std::vector<std::unique_ptr<sched::Scheduler>> scheds(kNodes);
        std::vector<const ProbeScheduler *> probes(kNodes, nullptr);
        std::vector<cluster::SimulationResult> results(kNodes);
        std::vector<double> taskS(kNodes, 0.0);
        const std::int64_t t1 = nowNs();
        exec::parallelFor(pool_, kNodes, [&](std::size_t n) {
            const std::int64_t t = nowNs();
            nodes[n].emplace(mc, colocations[n]);
            scheds[n] = makeScheduler("ARQ", probe, &probes[n]);
            const cluster::EpochSimulator sim(*nodes[n], trial_);
            results[n] = sim.run(*scheds[n]);
            taskS[n] = secondsSince(t);
        });
        u.runS = secondsSince(t1);

        for (const auto &res : results) {
            u.outputs.push_back(res.meanES);
            u.outputs.push_back(res.violations);
            u.meanES += res.meanES / kNodes;
            u.violations += res.violations;
        }
        if (probe == Probe::Off) {
            for (double s : taskS)
                trialUs_.push_back(s * 1e6);
        } else {
            for (std::size_t n = 0; n < nodes.size(); ++n)
                each(*nodes[n], trial_, *probes[n], results[n]);
        }
        return u;
    }

    double epochsPerUnit() const override
    {
        return static_cast<double>(kNodes) * cc_.rounds * cc_.roundEpochs;
    }
    double nodesPerUnit() const override
    {
        return static_cast<double>(kNodes) * cc_.rounds;
    }

    int threads() const override { return activeThreads(pool_); }

    void tracedExtra(int pair, std::vector<std::string> &fail) override
    {
        (void)pair;
        const Unit u = unit();
        if (clusterRef_.empty())
            clusterRef_ = u.outputs;
        else if (!sameBits(clusterRef_, u.outputs))
            fail.push_back("cluster outputs differ between runs of one seed");
        roundMs_.push_back(u.runS * 1e3 / cc_.rounds);
    }

    void layerMetrics(std::map<std::string, double> &m) const override
    {
        // The cluster run's outputs, not the trial batch's.
        m["sim_mean_es"] = clusterES_;
        m["sim_violations"] = clusterViolations_;
        m["cluster_sched.round_ms"] = median(roundMs_);
        m["cluster_sched.trial_sim_us"] = median(trialUs_);
        m["cluster_sched.migrations"] = migrations_;
    }

    std::string describe() const override
    {
        return std::to_string(kNodes) + " fleet-shaped nodes, ARQ, " +
            std::to_string(cc_.rounds) + " rounds x " +
            std::to_string(cc_.roundEpochs) +
            " epochs, ClusterScheduler::run on " +
            std::to_string(pool_.threads()) + " pool workers";
    }

  private:
    cluster::ClusterConfig cc_;
    cluster::SimulationConfig base_;
    cluster::SimulationConfig trial_;
    trace::FleetLoadConfig load_;
    exec::ThreadPool &pool_;
    std::vector<double> roundMs_, trialUs_, clusterRef_;
    double clusterES_ = 0.0;
    double clusterViolations_ = 0.0;
    double migrations_ = 0.0;
};

// ---- measurement loops --------------------------------------------

/** Fewest units a run measures, however short its budget. */
constexpr int kMinUnits = 3;

/** Cap on the per-call samples kept for percentiles. */
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;

/** Fold a unit's check results into the report. */
void
tally(Report &rep, const Unit &u)
{
    ++rep.attempted;
    if (!u.failures.empty())
        ++rep.failed;
    rep.failures.insert(rep.failures.end(), u.failures.begin(),
                        u.failures.end());
}

void
checkOutputs(Unit &u, const Unit &ref)
{
    if (!sameBits(u.outputs, ref.outputs))
        u.failures.push_back("simulated outputs differ between runs of "
                             "one seed");
}

Report
untraced(Workload &w, const Options &opts)
{
    Report rep;
    Unit ref = w.unit();
    w.checkOnce(ref, ref.failures);
    tally(rep, ref);

    std::vector<double> eps, nps, setup;
    const std::int64_t t0 = nowNs();
    while (secondsSince(t0) < opts.seconds ||
           static_cast<int>(eps.size()) < kMinUnits) {
        Unit u = w.unit();
        checkOutputs(u, ref);
        tally(rep, u);
        eps.push_back(w.epochsPerUnit() / u.runS);
        nps.push_back(w.nodesPerUnit() / u.runS);
        setup.push_back(u.setupS);
    }

    rep.metrics = {
        {"epochs_per_s", median(eps), "1/s"},
        {"nodes_per_s", median(nps), "1/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mib", peakRssMiB(), "MiB"},
    };
    // The simulated outputs change with the seed far more than any
    // bound allows (the seed redraws the tenant population), so they
    // are traced-mode metrics; here they are printed for reference.
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "sim_mean_es=%.17g sim_violations=%lld failed_frac=%.17g",
                  ref.meanES, ref.violations,
                  static_cast<double>(rep.failed) /
                      static_cast<double>(rep.attempted));
    rep.notes.push_back(buf);
    rep.notes.push_back("units measured: " + std::to_string(eps.size()) +
                        " (medians over units)");
    return rep;
}

/** The per-layer metrics, in BENCHMARK.json order, with units. */
const std::vector<std::pair<std::string, std::string>> &
layerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> kNames = {
        {"sim_mean_es", "ratio"},
        {"sim_violations", "count"},
        {"sched.decide_us_p50", "us"},
        {"sched.decide_us_p99", "us"},
        {"sched.decide_share", "ratio"},
        {"sched.clite.decide_growth", "ratio"},
        {"perf.contention.evals", "count"},
        {"perf.contention.memo_hits", "count"},
        {"perf.contention.memo_hit_ratio", "ratio"},
        {"perf.contention.eval_us_hit", "us"},
        {"perf.contention.eval_us_miss", "us"},
        {"perf.contention.share", "ratio"},
        {"perf.queueing.sojourn_us", "us"},
        {"core.entropy_us", "us"},
        {"cluster.epoch_us_p50", "us"},
        {"cluster.epoch_us_p99", "us"},
        {"cluster.unattributed_share", "ratio"},
        {"cluster.records_share", "ratio"},
        {"fleet.setup_us_per_node", "us"},
        {"fleet.node_run_us_p50", "us"},
        {"fleet.node_run_us_p99", "us"},
        {"fleet.fold_us", "us"},
        {"fleet.merge_us", "us"},
        {"exec.busy_share", "ratio"},
        {"cluster_sched.round_ms", "ms"},
        {"cluster_sched.trial_sim_us", "us"},
        {"cluster_sched.migrations", "count"},
        {"obs.overhead_ratio", "ratio"},
        {"obs.attribute_us", "us"},
        {"obs.attribute_evals_per_epoch", "count"},
        {"obs.trace_events", "count"},
        {"obs.trace_bytes", "B"},
        {"obs.series_points", "count"},
        {"bench.trace_overhead", "ratio"},
    };
    return kNames;
}

/** What the Timing proxies of the traced units recorded. */
struct Harvest
{
    std::vector<double> decideUs, epochUs, nodeRunUs, cliteGrowth;
    double decideSumNs = 0.0;
    long long decides = 0;
    double epochSumNs = 0.0;
    long long epochs = 0;
    double nodeRunSumNs = 0.0;

    void take(const ProbeScheduler &p)
    {
        const auto &starts = p.adjustStartNs();
        const auto &decide = p.decideNs();
        for (std::size_t i = 0; i < decide.size(); ++i) {
            decideSumNs += static_cast<double>(decide[i]);
            ++decides;
            if (decideUs.size() < kMaxSamples)
                decideUs.push_back(static_cast<double>(decide[i]) * 1e-3);
        }
        for (std::size_t i = 1; i < starts.size(); ++i) {
            const double gap = static_cast<double>(starts[i] - starts[i - 1]);
            epochSumNs += gap;
            ++epochs;
            if (epochUs.size() < kMaxSamples)
                epochUs.push_back(gap * 1e-3);
        }
        const double run = p.runNs();
        nodeRunSumNs += run;
        nodeRunUs.push_back(run * 1e-3);

        // CLITE's decide time late in the run over early in it.
        const std::size_t q = decide.size() / 4;
        if (p.name() == "CLITE" && q >= 8) {
            std::vector<double> first(decide.begin(), decide.begin() + q);
            std::vector<double> last(decide.end() - q, decide.end());
            const double early = median(first);
            if (early > 0.0)
                cliteGrowth.push_back(median(last) / early);
        }
    }
};

Report
traced(Workload &w, const Options &opts)
{
    Report rep;
    Harvest h;
    const NodeRunFn harvest = [&](const cluster::Node &,
                                  const cluster::SimulationConfig &,
                                  const ProbeScheduler &p,
                                  const cluster::SimulationResult &) {
        h.take(p);
    };

    Unit ref = w.probed(Probe::Off, {});
    tally(rep, ref);

    std::vector<double> plainS, tracedS, setupUsPerNode;
    double tracedSumS = 0.0;
    const std::int64_t t0 = nowNs();
    for (int pair = 0; secondsSince(t0) < opts.seconds || pair < kMinUnits;
         ++pair) {
        Unit plain, probed;
        if (pair % 2 == 0) {
            plain = w.probed(Probe::Off, {});
            probed = w.probed(Probe::Timing, harvest);
        } else {
            probed = w.probed(Probe::Timing, harvest);
            plain = w.probed(Probe::Off, {});
        }
        // A pair counts as one attempt; its checks fail together.
        checkOutputs(plain, ref);
        checkOutputs(probed, ref);
        probed.failures.insert(probed.failures.end(), plain.failures.begin(),
                               plain.failures.end());
        w.tracedExtra(pair, probed.failures);
        tally(rep, probed);
        plainS.push_back(plain.runS);
        tracedS.push_back(probed.runS);
        tracedSumS += probed.runS;
        setupUsPerNode.push_back(plain.setupS * 1e6 / plain.nodesBuilt);
    }

    // One more probed unit keeps every epoch's inputs for the replay
    // and folds each node's result into its own accumulator.
    ReplayStats rs;
    std::vector<double> foldUs;
    std::vector<cluster::FleetAccumulator> accums;
    const NodeRunFn replay = [&](const cluster::Node &node,
                                 const cluster::SimulationConfig &cfg,
                                 const ProbeScheduler &p,
                                 const cluster::SimulationResult &res) {
        replayRun(node, cfg, p, res, rs);
        cluster::FleetAccumulator acc;
        const std::int64_t f0 = nowNs();
        acc.add(node, res);
        foldUs.push_back(static_cast<double>(nowNs() - f0) * 1e-3);
        accums.push_back(std::move(acc));
    };
    Unit last = w.probed(Probe::Inputs, replay);
    checkOutputs(last, ref);
    last.failures.insert(last.failures.end(), rs.failures.begin(),
                         rs.failures.end());
    tally(rep, last);

    std::vector<double> mergeUs;
    for (int r = 0; r < 9; ++r) {
        cluster::FleetAccumulator pooled;
        const std::int64_t m0 = nowNs();
        for (const auto &acc : accums)
            pooled.merge(acc);
        mergeUs.push_back(static_cast<double>(nowNs() - m0) * 1e-3);
    }

    std::map<std::string, double> m;
    const double decide_ns =
        h.decides > 0 ? h.decideSumNs / static_cast<double>(h.decides) : 0.0;
    const double epoch_ns =
        h.epochs > 0 ? h.epochSumNs / static_cast<double>(h.epochs) : 0.0;
    auto per = [](double total, long long n) {
        return n > 0 ? total / static_cast<double>(n) : 0.0;
    };
    const double eval_ns = per(rs.hitNs + rs.missNs, rs.evals);
    const double sojourn_ns = per(rs.sojournNs, rs.entropyCalls);
    const double entropy_ns = per(rs.entropyNs, rs.entropyCalls);
    const double attribute_ns =
        w.attributes() ? per(rs.attributeNs, rs.entropyCalls) : 0.0;
    auto share = [&](double ns) {
        return epoch_ns > 0.0 ? ns / epoch_ns : 0.0;
    };

    m["sim_mean_es"] = ref.meanES;
    m["sim_violations"] = static_cast<double>(ref.violations);
    m["sched.decide_us_p50"] = quantile(h.decideUs, 0.5);
    m["sched.decide_us_p99"] = quantile(h.decideUs, 0.99);
    m["sched.decide_share"] = share(decide_ns);
    m["sched.clite.decide_growth"] = median(h.cliteGrowth);
    m["perf.contention.evals"] = static_cast<double>(rs.evals);
    m["perf.contention.memo_hits"] = static_cast<double>(rs.hits);
    m["perf.contention.memo_hit_ratio"] = per(static_cast<double>(rs.hits),
                                              rs.evals);
    m["perf.contention.eval_us_hit"] = per(rs.hitNs, rs.hits) * 1e-3;
    m["perf.contention.eval_us_miss"] =
        per(rs.missNs, rs.evals - rs.hits) * 1e-3;
    m["perf.contention.share"] = share(eval_ns);
    m["perf.queueing.sojourn_us"] = per(rs.sojournNs, rs.sojournCalls) * 1e-3;
    m["core.entropy_us"] = entropy_ns * 1e-3;
    m["cluster.epoch_us_p50"] = quantile(h.epochUs, 0.5);
    m["cluster.epoch_us_p99"] = quantile(h.epochUs, 0.99);
    m["cluster.unattributed_share"] =
        epoch_ns > 0.0 ? 1.0 - share(decide_ns + eval_ns + sojourn_ns +
                                     entropy_ns + attribute_ns)
                       : 0.0;
    m["fleet.setup_us_per_node"] = median(setupUsPerNode);
    m["fleet.node_run_us_p50"] = quantile(h.nodeRunUs, 0.5);
    m["fleet.node_run_us_p99"] = quantile(h.nodeRunUs, 0.99);
    m["fleet.fold_us"] = median(foldUs);
    m["fleet.merge_us"] = median(mergeUs);
    m["exec.busy_share"] = tracedSumS > 0.0
        ? h.nodeRunSumNs * 1e-9 / (tracedSumS * w.threads())
        : 0.0;
    m["obs.attribute_us"] = per(rs.attributeNs, rs.attributeCalls) * 1e-3;
    m["obs.attribute_evals_per_epoch"] =
        per(static_cast<double>(rs.attributeEvals), rs.attributeCalls);
    const double plain = median(plainS);
    m["bench.trace_overhead"] = plain > 0.0 ? median(tracedS) / plain - 1.0
                                            : 0.0;
    w.layerMetrics(m);

    for (const auto &[name, unit] : layerMetricNames()) {
        const auto it = m.find(name);
        rep.metrics.push_back({name, it != m.end() ? it->second : 0.0, unit});
        if (it != m.end())
            m.erase(it);
    }
    if (!m.empty())
        throw std::logic_error("unlisted per-layer metric: " +
                               m.begin()->first);

    rep.notes.push_back(
        "pairs (plain, traced): " + std::to_string(plainS.size()) +
        "; decide samples: " + std::to_string(h.decides) +
        "; epoch intervals: " + std::to_string(h.epochs) +
        "; node runs: " + std::to_string(h.nodeRunUs.size()) +
        "; replayed epochs: " + std::to_string(rs.epochs) +
        "; memo hits: " + std::to_string(rs.hits) + "/" +
        std::to_string(rs.evals));
    rep.notes.push_back("per-layer metrics a workload does not exercise "
                        "read 0");
    return rep;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> kNames = {
        "steady_node", "diurnal_fleet", "observed_node",
        "cluster_rebalance"};
    return kNames;
}

Report
runWorkload(const Options &opts)
{
    exec::ThreadPool pool(opts.poolThreads);
    std::unique_ptr<Workload> w;
    if (opts.workload == "steady_node")
        w = std::make_unique<SteadyNode>(opts.seed);
    else if (opts.workload == "diurnal_fleet")
        w = std::make_unique<DiurnalFleet>(opts.seed, pool);
    else if (opts.workload == "observed_node")
        w = std::make_unique<ObservedNode>(opts.seed);
    else if (opts.workload == "cluster_rebalance")
        w = std::make_unique<ClusterRebalance>(opts.seed, pool);
    else
        throw std::invalid_argument("unknown workload: " + opts.workload);

    Report rep = opts.trace ? traced(*w, opts) : untraced(*w, opts);
    rep.notes.insert(rep.notes.begin(), "unit: " + w->describe());
    return rep;
}

} // namespace ahqbench
