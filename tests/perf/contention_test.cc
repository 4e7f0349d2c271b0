/**
 * @file
 * Tests for the contention model: solo baselines, sharing policies,
 * isolation effects, bandwidth coupling, and determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "machine/config.hh"
#include "machine/layout.hh"
#include "perf/contention.hh"
#include "stats/rng.hh"

namespace
{

using namespace ahq::perf;
using ahq::machine::MachineConfig;
using ahq::machine::Region;
using ahq::machine::RegionLayout;
using ahq::machine::ResourceKind;
using ahq::machine::ResourceVector;

AppDemand
lcDemand(double lambda, double svc_ms = 1.0)
{
    AppDemand d;
    d.latencyCritical = true;
    d.arrivalRate = lambda;
    d.serviceTimeMs = svc_ms;
    d.threads = 4;
    d.cpi = CpiModel(MissRateCurve(15.0, 2.0, 5.0), CpiTraits{});
    return d;
}

AppDemand
beDemand(double ipc_solo = 2.0, int threads = 4,
         double mpki_max = 10.0, double mpki_min = 2.0,
         double mlp = 2.0)
{
    AppDemand d;
    d.latencyCritical = false;
    d.ipcSolo = ipc_solo;
    d.threads = threads;
    CpiTraits t;
    t.mlp = mlp;
    d.cpi = CpiModel(MissRateCurve(mpki_max, mpki_min, 4.0), t);
    return d;
}

ContentionModel
makeModel()
{
    return ContentionModel(MachineConfig::xeonE52630v4());
}

TEST(Contention, SoloLcOnFullMachineRunsAtFullSpeed)
{
    const auto model = makeModel();
    auto layout = RegionLayout::fullyShared({10, 20, 10}, {0});
    const auto out = model.evaluate(layout, {lcDemand(500.0)},
                                    CoreSharePolicy::LcPriority);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NEAR(out[0].speed, 1.0, 0.02);
    EXPECT_NEAR(out[0].coreEquivalents, 4.0, 1e-6);
    EXPECT_EQ(out[0].serviceStretch, 1.0);
    EXPECT_NEAR(out[0].effectiveWays, 20.0, 0.5);
    // Capacity near threads / service time, less the shared-core
    // pollution penalty.
    EXPECT_GT(out[0].serviceRate, 3000.0);
    EXPECT_LE(out[0].serviceRate, 4000.0);
}

TEST(Contention, IsolatedLcAvoidsSharedPenalty)
{
    const auto model = makeModel();
    // Fully isolated 4 cores vs the same 4 cores in a shared region
    // with nobody else: isolation should yield strictly more
    // capacity because shared cores pay the pollution penalty.
    RegionLayout iso({10, 20, 10});
    Region r;
    r.name = "iso";
    r.shared = false;
    r.members = {0};
    r.res = {4, 20, 10};
    iso.addRegion(std::move(r));

    RegionLayout shared({4, 20, 10});
    Region s;
    s.name = "sh";
    s.shared = true;
    s.members = {0};
    s.res = {4, 20, 10};
    shared.addRegion(std::move(s));

    const auto demands = std::vector<AppDemand>{lcDemand(1000.0)};
    const auto o_iso = model.evaluate(iso, demands,
                                      CoreSharePolicy::LcPriority);
    const auto o_sh = model.evaluate(shared, demands,
                                     CoreSharePolicy::LcPriority);
    EXPECT_GT(o_iso[0].serviceRate, o_sh[0].serviceRate * 1.05);
}

TEST(Contention, LcPriorityShieldsLcFromBe)
{
    const auto model = makeModel();
    auto layout = RegionLayout::fullyShared({10, 20, 10}, {0, 1});
    const std::vector<AppDemand> demands{lcDemand(800.0),
                                         beDemand(2.0, 10)};
    const auto pri = model.evaluate(layout, demands,
                                    CoreSharePolicy::LcPriority);
    const auto fair = model.evaluate(layout, demands,
                                     CoreSharePolicy::FairShare);
    // Under priority the LC app keeps its full burst capacity and no
    // timeslice stretch; under fair share with 10 BE threads the
    // region is oversubscribed.
    EXPECT_EQ(pri[0].serviceStretch, 1.0);
    EXPECT_GT(fair[0].serviceStretch, 1.0);
    EXPECT_GE(pri[0].serviceRate, fair[0].serviceRate);
}

TEST(Contention, FairShareOversubscriptionStretches)
{
    const auto model =
        ContentionModel(MachineConfig::xeonE52630v4()
                            .withAvailable(6, 20, 10));
    auto layout = RegionLayout::fullyShared({6, 20, 10},
                                            {0, 1, 2, 3});
    // Three loaded LC apps + one BE app on six cores (the Table II
    // configuration).
    const std::vector<AppDemand> demands{
        lcDemand(700.0), lcDemand(400.0, 1.8), lcDemand(1000.0, 0.6),
        beDemand(2.6, 4)};
    const auto out = model.evaluate(layout, demands,
                                    CoreSharePolicy::FairShare);
    for (int i = 0; i < 3; ++i)
        EXPECT_GT(out[i].serviceStretch, 1.0) << "app " << i;
}

TEST(Contention, BeIpcScalesWithCores)
{
    const auto model = makeModel();
    double prev_ipc = 0.0;
    for (int cores = 1; cores <= 4; ++cores) {
        RegionLayout l({10, 20, 10});
        Region r;
        r.name = "be";
        r.shared = true;
        r.members = {0};
        r.res = {cores, 20, 10};
        l.addRegion(std::move(r));
        const auto out = model.evaluate(l, {beDemand(2.0, 4)},
                                        CoreSharePolicy::FairShare);
        EXPECT_GT(out[0].ipc, prev_ipc);
        prev_ipc = out[0].ipc;
    }
    // With all 4 threads backed by cores and the full cache, the BE
    // app reaches its solo IPC.
    EXPECT_NEAR(prev_ipc, 2.0, 0.1);
}

TEST(Contention, BeIpcScalesWithWays)
{
    const auto model = makeModel();
    double prev_ipc = 0.0;
    for (int ways : {2, 5, 10, 20}) {
        RegionLayout l({10, 20, 10});
        Region r;
        r.name = "be";
        r.shared = true;
        r.members = {0};
        r.res = {4, ways, 10};
        l.addRegion(std::move(r));
        const auto out = model.evaluate(
            l, {beDemand(2.0, 4, 30.0, 5.0)},
            CoreSharePolicy::FairShare);
        EXPECT_GT(out[0].ipc, prev_ipc);
        prev_ipc = out[0].ipc;
    }
}

TEST(Contention, BandwidthHogDilatesCorunner)
{
    const auto model = makeModel();
    // A cache-sensitive app isolated from a STREAM-like hog still
    // shares the memory bus.
    RegionLayout l({10, 20, 10});
    Region a;
    a.name = "victim";
    a.shared = false;
    a.members = {0};
    a.res = {4, 10, 5};
    l.addRegion(std::move(a));
    Region b;
    b.name = "hog";
    b.shared = true;
    b.members = {1};
    b.res = {6, 10, 5};
    l.addRegion(std::move(b));

    const std::vector<AppDemand> with_hog{
        lcDemand(500.0), beDemand(0.9, 10, 60.0, 56.0, 8.0)};
    const std::vector<AppDemand> idle_hog{
        lcDemand(500.0), beDemand(0.9, 1, 1.0, 0.5, 1.0)};
    const auto o1 = model.evaluate(l, with_hog,
                                   CoreSharePolicy::LcPriority);
    const auto o2 = model.evaluate(l, idle_hog,
                                   CoreSharePolicy::LcPriority);
    EXPECT_GT(o1[0].bwDilation, o2[0].bwDilation);
    EXPECT_LT(o1[0].speed, o2[0].speed);
}

TEST(Contention, SharedWaysStolenByIntensity)
{
    const auto model = makeModel();
    auto layout = RegionLayout::fullyShared({10, 20, 10}, {0, 1});
    // A cache-hungry BE app against a flat-MRC streaming app: the
    // hungry one should end up with more effective ways.
    const std::vector<AppDemand> demands{
        beDemand(1.3, 4, 32.0, 6.0),       // cache hungry
        beDemand(0.9, 4, 60.0, 56.0, 8.0), // streaming
    };
    const auto out = model.evaluate(layout, demands,
                                    CoreSharePolicy::FairShare);
    EXPECT_GT(out[0].effectiveWays, out[1].effectiveWays);
    EXPECT_NEAR(out[0].effectiveWays + out[1].effectiveWays, 20.0,
                1.0);
}

TEST(Contention, UtilizationReported)
{
    const auto model = makeModel();
    auto layout = RegionLayout::fullyShared({10, 20, 10}, {0});
    const auto out = model.evaluate(layout, {lcDemand(1000.0)},
                                    CoreSharePolicy::LcPriority);
    EXPECT_NEAR(out[0].utilization,
                1000.0 / out[0].serviceRate, 1e-9);
}

TEST(Contention, Deterministic)
{
    const auto model = makeModel();
    auto layout = RegionLayout::arqInitial({10, 20, 10}, {0, 1}, {2});
    const std::vector<AppDemand> demands{
        lcDemand(800.0), lcDemand(300.0, 1.8), beDemand(2.0, 10)};
    const auto a = model.evaluate(layout, demands,
                                  CoreSharePolicy::LcPriority);
    const auto b = model.evaluate(layout, demands,
                                  CoreSharePolicy::LcPriority);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].speed, b[i].speed);
        EXPECT_EQ(a[i].serviceRate, b[i].serviceRate);
        EXPECT_EQ(a[i].ipc, b[i].ipc);
        EXPECT_EQ(a[i].effectiveWays, b[i].effectiveWays);
    }
}

TEST(Contention, MoreMachineWaysNeverHurtLc)
{
    const auto model = makeModel();
    double prev_rate = 0.0;
    for (int ways : {4, 8, 12, 16, 20}) {
        auto layout = RegionLayout::fullyShared({10, ways, 10}, {0});
        const auto out = model.evaluate(layout, {lcDemand(1500.0)},
                                        CoreSharePolicy::LcPriority);
        EXPECT_GE(out[0].serviceRate, prev_rate * 0.999);
        prev_rate = out[0].serviceRate;
    }
}

TEST(Contention, OverloadedLcRationedInSharedRegion)
{
    // Two LC apps that together demand more than the shared cores:
    // both get rationed, neither starves completely.
    const auto model =
        ContentionModel(MachineConfig::xeonE52630v4()
                            .withAvailable(4, 20, 10));
    auto layout = RegionLayout::fullyShared({4, 20, 10}, {0, 1});
    const std::vector<AppDemand> demands{
        lcDemand(4000.0), lcDemand(4000.0)};
    const auto out = model.evaluate(layout, demands,
                                    CoreSharePolicy::LcPriority);
    EXPECT_GT(out[0].coreEquivalents, 0.5);
    EXPECT_GT(out[1].coreEquivalents, 0.5);
    EXPECT_GT(out[0].utilization, 1.0); // overloaded
    EXPECT_LE(out[0].coreEquivalents + out[1].coreEquivalents,
              4.0 + 1e-6);
}

// ---- random corpus ---------------------------------------------------

/** A random demand; LC loads reach 1.2x what its threads serve. */
AppDemand
randomDemand(ahq::stats::Rng &rng, bool lc)
{
    AppDemand d;
    d.latencyCritical = lc;
    d.threads = 1 + static_cast<int>(rng.uniformInt(10));
    CpiTraits t;
    t.cpiBase = rng.uniform(0.3, 1.2);
    t.missPenaltyCycles = rng.uniform(100.0, 250.0);
    t.mlp = rng.uniform(1.0, 8.0);
    const double mpki_max = rng.uniform(1.0, 60.0);
    const double mpki_min = rng.uniform(0.0, mpki_max);
    d.cpi = CpiModel(
        MissRateCurve(mpki_max, mpki_min, rng.uniform(0.5, 10.0)), t);
    if (lc) {
        d.serviceTimeMs = rng.uniform(0.2, 5.0);
        d.arrivalRate = rng.uniform(0.0, 1.2) * d.threads * 1000.0 /
            d.serviceTimeMs;
    } else {
        d.ipcSolo = rng.uniform(0.5, 3.0);
    }
    return d;
}

/**
 * A random valid layout of n apps over @p avail: 1-5 regions, each
 * shared or not, with members in random order. Resources are dealt
 * out region by region, so later regions often get zero cores or
 * zero ways; layouts an app cannot run in are redrawn.
 */
RegionLayout
randomLayout(ahq::stats::Rng &rng, ResourceVector avail, int n)
{
    for (;;) {
        RegionLayout layout(avail);
        ResourceVector left = avail;
        const int regions = 1 + static_cast<int>(rng.uniformInt(5));
        for (int r = 0; r < regions; ++r) {
            Region reg;
            reg.name = "r" + std::to_string(r);
            reg.shared = rng.bernoulli(0.5);
            for (const ResourceKind k :
                 {ResourceKind::Cores, ResourceKind::LlcWays,
                  ResourceKind::MemBw}) {
                const int units = static_cast<int>(rng.uniformInt(
                    static_cast<std::uint64_t>(left.get(k)) + 1));
                reg.res.set(k, units);
                left.ref(k) -= units;
            }
            std::vector<int> order(static_cast<std::size_t>(n));
            for (int i = 0; i < n; ++i)
                order[static_cast<std::size_t>(i)] = i;
            for (int i = n - 1; i > 0; --i) {
                std::swap(order[static_cast<std::size_t>(i)],
                          order[rng.uniformInt(
                              static_cast<std::uint64_t>(i) + 1)]);
            }
            // Isolated regions mostly hold one app; shared ones any.
            const double p = reg.shared ? 0.6 : 0.15;
            for (const int i : order) {
                if (reg.members.empty() && !reg.shared)
                    reg.members.push_back(i);
                else if (rng.bernoulli(p))
                    reg.members.push_back(i);
            }
            layout.addRegion(std::move(reg));
        }
        for (int i = 0; i < n; ++i) {
            if (layout.regionsOf(i).empty()) {
                layout
                    .region(static_cast<int>(rng.uniformInt(
                        static_cast<std::uint64_t>(regions))))
                    .members.push_back(i);
            }
        }
        if (layout.valid())
            return layout;
    }
}

/** Which corner cases one corpus case reaches. */
struct CorpusCoverage
{
    int fairShare = 0, lcPriority = 0, oneApp = 0, eightApps = 0;
    int multiMemberIsolated = 0, appInTwoShared = 0;
    int lcOnlyShared = 0, beOnlyShared = 0;
    int zeroCoreRegion = 0, zeroWayRegion = 0, overloaded = 0;

    void add(const RegionLayout &layout,
             const std::vector<AppDemand> &demands,
             CoreSharePolicy policy)
    {
        ++(policy == CoreSharePolicy::FairShare ? fairShare : lcPriority);
        oneApp += demands.size() == 1;
        eightApps += demands.size() == 8;
        bool multi_iso = false, lc_only = false, be_only = false;
        bool zero_cores = false, zero_ways = false;
        std::vector<int> shared_of(demands.size(), 0);
        for (ahq::machine::RegionId r = 0; r < layout.numRegions(); ++r) {
            const Region &reg = layout.region(r);
            if (reg.members.empty())
                continue;
            zero_cores = zero_cores || reg.res.cores == 0;
            zero_ways = zero_ways || reg.res.llcWays == 0;
            if (!reg.shared) {
                multi_iso = multi_iso || reg.members.size() > 1;
                continue;
            }
            int lc = 0;
            for (const auto m : reg.members) {
                ++shared_of[static_cast<std::size_t>(m)];
                lc += demands[static_cast<std::size_t>(m)].latencyCritical;
            }
            lc_only = lc_only || lc == static_cast<int>(reg.members.size());
            be_only = be_only || lc == 0;
        }
        multiMemberIsolated += multi_iso;
        lcOnlyShared += lc_only;
        beOnlyShared += be_only;
        zeroCoreRegion += zero_cores;
        zeroWayRegion += zero_ways;
        appInTwoShared +=
            *std::max_element(shared_of.begin(), shared_of.end()) >= 2;
        bool over = false;
        for (const AppDemand &d : demands) {
            over = over ||
                (d.latencyCritical &&
                 d.arrivalRate * d.serviceTimeMs / 1000.0 > d.threads);
        }
        overloaded += over;
    }
};

/**
 * Every PerfOutcome bit of a seeded corpus of valid cases, folded
 * into one FNV-1a-64 digest. The golden digests reach only layouts
 * that schedulers build; this corpus also reaches multi-member
 * isolated regions, apps in two shared regions, LC-only and BE-only
 * shared regions, zero-core and zero-way regions and overload, so an
 * order slip in a sum over several regions moves the digest. One
 * model per machine evaluates every case in turn, so the workspace
 * is reused across app counts and layouts. A model change
 * re-records the digest; a speed-only change must not.
 */
TEST(Contention, RandomCorpusDigestIsPinned)
{
    const MachineConfig machines[] = {
        MachineConfig::xeonE52630v4(),
        MachineConfig::xeonE52630v4().withAvailable(6, 12, 6),
        MachineConfig::xeonGold6248()};
    std::vector<ContentionModel> models;
    for (const MachineConfig &mc : machines)
        models.emplace_back(mc);

    ahq::stats::Rng rng(20240918);
    std::uint64_t h = 14695981039346656037ULL;
    auto fold = [&h](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 1099511628211ULL;
        }
    };
    CorpusCoverage cov;
    std::vector<PerfOutcome> out;
    constexpr int kCases = 2400;
    for (int c = 0; c < kCases; ++c) {
        const auto m = rng.uniformInt(std::size(machines));
        const int n = 1 + static_cast<int>(rng.uniformInt(8));
        std::vector<AppDemand> demands;
        for (int i = 0; i < n; ++i)
            demands.push_back(randomDemand(rng, rng.bernoulli(0.5)));
        const RegionLayout layout =
            randomLayout(rng, machines[m].availableResources(), n);
        const CoreSharePolicy policy = rng.bernoulli(0.5)
            ? CoreSharePolicy::FairShare
            : CoreSharePolicy::LcPriority;
        cov.add(layout, demands, policy);
        models[m].evaluateInto(layout, demands, policy, out);
        ASSERT_EQ(out.size(), demands.size());
        for (const PerfOutcome &o : out) {
            for (const double v :
                 {o.coreEquivalents, o.effectiveWays, o.bwDilation,
                  o.speed, o.serviceStretch, o.perServerRate,
                  o.serviceRate, o.utilization, o.ipc, o.bwDemandGibps})
                fold(v);
        }
    }
    // One call per case and no hit: every case ran the miss path.
    std::size_t hits = 0;
    for (const ContentionModel &model : models)
        hits += model.memoHits();
    EXPECT_EQ(hits, 0u);

    for (const auto &[name, count] :
         {std::pair{"FairShare", cov.fairShare},
          {"LcPriority", cov.lcPriority},
          {"one app", cov.oneApp},
          {"eight apps", cov.eightApps},
          {"multi-member isolated region", cov.multiMemberIsolated},
          {"app in two shared regions", cov.appInTwoShared},
          {"LC-only shared region", cov.lcOnlyShared},
          {"BE-only shared region", cov.beOnlyShared},
          {"zero-core region", cov.zeroCoreRegion},
          {"zero-way region", cov.zeroWayRegion},
          {"LC load past saturation", cov.overloaded}})
        EXPECT_GE(count, 50) << name;
    EXPECT_EQ(h, 0x0735fc17643d17f3ULL)
        << "corpus digest is now 0x" << std::hex << std::setw(16)
        << std::setfill('0') << h;
}

/** Every PerfOutcome field's bits, so NaNs compare exactly too. */
std::vector<std::uint64_t>
outcomeBits(const std::vector<PerfOutcome> &outs)
{
    std::vector<std::uint64_t> bits;
    for (const PerfOutcome &o : outs) {
        for (const double v :
             {o.coreEquivalents, o.effectiveWays, o.bwDilation, o.speed,
              o.serviceStretch, o.perServerRate, o.serviceRate,
              o.utilization, o.ipc, o.bwDemandGibps}) {
            std::uint64_t b;
            std::memcpy(&b, &v, sizeof(b));
            bits.push_back(b);
        }
    }
    return bits;
}

/**
 * A batch is the sequential result, bit for bit: over seeded random
 * corpus cases of K = 1..9 sets (lock-step passes 1..4, 4+1, 4+2,
 * 4+3, 4+4 and 4+4+1) under both policies, every outcome of
 * evaluateBatchInto() equals one evaluateInto() per set on a fresh
 * model. Set 0 is a random case; each further set either vacates
 * one app of it (a counterfactual) or redraws every app's load,
 * threads, service time and curves with the same kinds. On the same
 * model, repeating the batch hits the memo for every set, and a
 * batch whose sets were partly evaluated before mixes hits and
 * misses. Last, a pass ends only when no lane changed: an idle app
 * holding the whole machine is stable from the first iteration, and
 * a loaded set beside it must still run every iteration.
 */
TEST(Contention, BatchMatchesOneCallPerSet)
{
    const MachineConfig machines[] = {
        MachineConfig::xeonE52630v4(),
        MachineConfig::xeonE52630v4().withAvailable(6, 12, 6),
        MachineConfig::xeonGold6248()};
    ahq::stats::Rng rng(20261019);
    std::vector<std::vector<PerfOutcome>> outs, again;
    std::vector<PerfOutcome> one;
    for (int c = 0; c < 360; ++c) {
        const MachineConfig &mc =
            machines[rng.uniformInt(std::size(machines))];
        const std::size_t n = 1 + rng.uniformInt(8);
        const std::size_t k_sets = 1 + static_cast<std::size_t>(c % 9);
        std::vector<std::vector<AppDemand>> batch(1);
        for (std::size_t i = 0; i < n; ++i)
            batch[0].push_back(randomDemand(rng, rng.bernoulli(0.5)));
        for (std::size_t k = 1; k < k_sets; ++k) {
            std::vector<AppDemand> set = batch[0];
            if (k - 1 < n && rng.bernoulli(0.5)) {
                set[k - 1].threads = 0;
                set[k - 1].arrivalRate = 0.0;
            } else {
                for (AppDemand &d : set)
                    d = randomDemand(rng, d.latencyCritical);
            }
            batch.push_back(std::move(set));
        }
        const RegionLayout layout =
            randomLayout(rng, mc.availableResources(), static_cast<int>(n));
        const CoreSharePolicy policy = c % 2 == 0
            ? CoreSharePolicy::FairShare
            : CoreSharePolicy::LcPriority;

        std::vector<std::vector<std::uint64_t>> want;
        const ContentionModel sequential(mc);
        for (const auto &set : batch) {
            sequential.evaluateInto(layout, set, policy, one);
            want.push_back(outcomeBits(one));
        }

        const ContentionModel model(mc);
        outs.assign(k_sets, {});
        model.evaluateBatchInto(layout, batch, policy, outs);
        EXPECT_EQ(model.memoHits(), 0u);
        for (std::size_t k = 0; k < k_sets; ++k)
            EXPECT_EQ(outcomeBits(outs[k]), want[k])
                << "case " << c << " set " << k;

        // Every set was filed under its own key: all hit again.
        again.assign(k_sets, {});
        model.evaluateBatchInto(layout, batch, policy, again);
        EXPECT_EQ(model.memoHits(), k_sets) << "case " << c;
        for (std::size_t k = 0; k < k_sets; ++k)
            EXPECT_EQ(outcomeBits(again[k]), want[k])
                << "case " << c << " set " << k << " (memo hit)";

        // Odd sets evaluated beforehand hit; the rest are solved.
        const ContentionModel mixed(mc);
        for (std::size_t k = 1; k < k_sets; k += 2)
            mixed.evaluateInto(layout, batch[k], policy, one);
        outs.assign(k_sets, {});
        mixed.evaluateBatchInto(layout, batch, policy, outs);
        EXPECT_EQ(mixed.memoHits(), k_sets / 2) << "case " << c;
        for (std::size_t k = 0; k < k_sets; ++k)
            EXPECT_EQ(outcomeBits(outs[k]), want[k])
                << "case " << c << " set " << k << " (mixed)";
    }

    const MachineConfig mc = MachineConfig::xeonE52630v4();
    RegionLayout whole(mc.availableResources());
    Region all;
    all.name = "all";
    all.res = mc.availableResources();
    all.members = {0};
    whole.addRegion(std::move(all));
    const std::vector<std::vector<AppDemand>> idle_and_busy = {
        {lcDemand(0.0)}, {lcDemand(3000.0)}};
    const ContentionModel model(mc), sequential(mc);
    outs.assign(2, {});
    model.evaluateBatchInto(whole, idle_and_busy,
                            CoreSharePolicy::LcPriority, outs);
    for (std::size_t k = 0; k < 2; ++k) {
        sequential.evaluateInto(whole, idle_and_busy[k],
                                CoreSharePolicy::LcPriority, one);
        EXPECT_EQ(outcomeBits(outs[k]), outcomeBits(one)) << "set " << k;
    }
}

} // namespace
