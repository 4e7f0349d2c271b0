/**
 * @file
 * Table IV: tail latency threshold and max load of each LC
 * application. The bench re-derives the max load from the queueing
 * model (the arrival rate at which the solo p95 reaches the
 * threshold) and compares it with the published value — a round-trip
 * check of the calibration.
 */

#include <iostream>

#include <cmath>
#include <limits>

#include "common.hh"

using namespace ahq;
using namespace ahq::bench;

namespace
{

/** Find the load fraction where solo p95 crosses the threshold. */
double
derivedMaxLoadQps(const apps::AppProfile &p)
{
    double lo = 0.0, hi = 2.0; // load fraction
    for (int it = 0; it < 60; ++it) {
        const double mid = 0.5 * (lo + hi);
        const double t = p.soloTailPercentileMs(mid, 0.95);
        if (std::isfinite(t) && t <= p.tailThresholdMs)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi) * p.maxLoadQps;
}

} // namespace

int
main()
{
    report::heading(std::cout,
                    "Table IV — LC application parameters");
    report::TextTable t({"app", "threshold (ms)", "paper max load",
                         "model max load", "ratio"});
    auto csv = openCsv("table4.csv",
                       {"app", "threshold_ms", "paper_max_qps",
                        "model_max_qps"});

    for (const char *name : {"xapian", "moses", "img-dnn",
                             "masstree", "sphinx", "silo"}) {
        const auto p = apps::byName(name);
        const double derived = derivedMaxLoadQps(p);
        t.addRow({p.name, num(p.tailThresholdMs, 2),
                  num(p.maxLoadQps, 1), num(derived, 1),
                  num(derived / p.maxLoadQps, 3)});
        csv->addRow({p.name, num(p.tailThresholdMs, 2),
                     num(p.maxLoadQps, 1), num(derived, 1)});
    }
    t.print(std::cout);
    std::cout << "\nExpected: ratio ~1.000 for every app — the "
                 "calibration solver anchors the knee\nexactly at "
                 "the published (threshold, max load) pair.\n";
    return 0;
}
