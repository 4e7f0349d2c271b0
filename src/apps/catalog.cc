/**
 * @file
 * Workload catalogue implementation.
 *
 * LC queueing parameters come from calibrateLcProfile() against the
 * published constants, once per process: each LC maker keeps its
 * calibrated profile in a function-local static (C++ initialises it
 * thread-safely) and returns a copy, so a fleet of replicas pays for
 * one bisection per profile. The microarchitectural traits (MRCs,
 * CPI bases, MLP) are chosen to match each workload's published
 * characterisation qualitatively. All constants are local to this
 * file so recalibration touches exactly one place.
 */

#include "apps/catalog.hh"

#include <stdexcept>

namespace ahq::apps
{

namespace
{

using perf::CpiModel;
using perf::CpiTraits;
using perf::MissRateCurve;

CpiModel
makeCpi(double mpki_max, double mpki_min, double ways_half,
        double cpi_base, double mlp, double penalty = 180.0)
{
    CpiTraits t;
    t.cpiBase = cpi_base;
    t.missPenaltyCycles = penalty;
    t.mlp = mlp;
    return CpiModel(MissRateCurve(mpki_max, mpki_min, ways_half), t);
}

AppProfile
makeLc(const std::string &name, CpiModel cpi,
       const CalibrationTargets &targets)
{
    AppProfile p;
    p.name = name;
    p.latencyCritical = true;
    p.threads = 4; // "instantiated with 4 threads" (Section V)
    p.cpi = cpi;
    calibrateLcProfile(p, targets);
    return p;
}

AppProfile
makeBe(const std::string &name, CpiModel cpi, double ipc_solo,
       int threads)
{
    AppProfile p;
    p.name = name;
    p.latencyCritical = false;
    p.threads = threads;
    p.ipcSolo = ipc_solo;
    p.cpi = cpi;
    return p;
}

} // namespace

AppProfile
xapian()
{
    // Table IV: threshold 4.22 ms, max load 3400 QPS.
    // Table II: ideal p95 at 20% load is 2.77 ms.
    static const AppProfile p =
        makeLc("xapian", makeCpi(20.0, 2.0, 6.0, 0.8, 2.0),
               {3400.0, 4.22, 2.77});
    return p;
}

AppProfile
moses()
{
    // Table IV: threshold 10.53 ms, max load 1800 QPS.
    // Table II: ideal p95 at 20% load is 2.80 ms.
    static const AppProfile p =
        makeLc("moses", makeCpi(12.0, 3.0, 4.0, 0.7, 2.0),
               {1800.0, 10.53, 2.80});
    return p;
}

AppProfile
imgDnn()
{
    // Table IV: threshold 3.98 ms, max load 5300 QPS.
    // Table II: ideal p95 at 20% load is 1.41 ms.
    static const AppProfile p =
        makeLc("img-dnn", makeCpi(8.0, 1.5, 3.0, 0.5, 2.5),
               {5300.0, 3.98, 1.41});
    return p;
}

AppProfile
masstree()
{
    // Table IV: threshold 1.05 ms, max load 4420 QPS. The ideal tail
    // at 20% load is not published; 0.63 ms keeps A_i mid-range.
    static const AppProfile p =
        makeLc("masstree", makeCpi(25.0, 6.0, 8.0, 0.9, 3.0),
               {4420.0, 1.05, 0.63});
    return p;
}

AppProfile
sphinx()
{
    // Table IV: threshold 2682 ms, max load 4.8 QPS (second-scale
    // speech decoding). Ideal tail at 20% load chosen at 1450 ms.
    static const AppProfile p =
        makeLc("sphinx", makeCpi(6.0, 1.0, 3.0, 0.5, 2.0),
               {4.8, 2682.0, 1450.0});
    return p;
}

AppProfile
silo()
{
    // Table IV: threshold 1.27 ms, max load 220 QPS. Ideal tail at
    // 20% load chosen at 0.70 ms.
    static const AppProfile p =
        makeLc("silo", makeCpi(15.0, 4.0, 5.0, 0.8, 2.5),
               {220.0, 1.27, 0.70});
    return p;
}

AppProfile
fluidanimate()
{
    // Compute-leaning PARSEC code; solo IPC ~2.6 (cf. Fig. 1's 2.63
    // under the near-ideal strategy A).
    return makeBe("fluidanimate",
                  makeCpi(8.0, 1.5, 5.0, 0.55, 2.0), 2.63, 4);
}

AppProfile
streamcluster()
{
    // Cache-hungry online clustering: deep MRC, modest solo IPC.
    return makeBe("streamcluster",
                  makeCpi(32.0, 6.0, 10.0, 0.7, 3.0), 1.30, 4);
}

AppProfile
stream()
{
    // Flat MRC (no reuse), high MLP, 10 threads (Section V): a
    // machine-wide bandwidth hog.
    return makeBe("stream",
                  makeCpi(60.0, 56.0, 2.0, 0.5, 8.0, 200.0), 0.90, 10);
}

std::vector<std::string>
allNames()
{
    return {"xapian", "moses", "img-dnn", "masstree", "sphinx",
            "silo", "fluidanimate", "streamcluster", "stream"};
}

AppProfile
byName(const std::string &name)
{
    if (name == "xapian")
        return xapian();
    if (name == "moses")
        return moses();
    if (name == "img-dnn")
        return imgDnn();
    if (name == "masstree")
        return masstree();
    if (name == "sphinx")
        return sphinx();
    if (name == "silo")
        return silo();
    if (name == "fluidanimate")
        return fluidanimate();
    if (name == "streamcluster")
        return streamcluster();
    if (name == "stream")
        return stream();
    throw std::invalid_argument("unknown application: " + name);
}

} // namespace ahq::apps
