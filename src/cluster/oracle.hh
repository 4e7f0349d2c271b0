/**
 * @file
 * Oracle search over static partitions.
 *
 * The paper's key insight (Section IV-A) is that neither complete
 * isolation nor complete sharing is optimal. This module makes that
 * quantitative: it exhaustively searches static layouts of two
 * families — full isolation (one exclusive region per application
 * group, the PARTIES/CLITE shape) and hybrid (per-LC isolated
 * regions plus one shared region, the ARQ shape) — under the
 * steady-state performance model, and returns the entropy-optimal
 * layout of each. The gap between the two optima is exactly the
 * value of resource sharing; the gap between a live controller and
 * its family's oracle measures the controller's convergence.
 *
 * The search is deliberately noise-free and transient-free (steady
 * state), so it bounds what any feedback controller could converge
 * to under the same model.
 */

#ifndef AHQ_CLUSTER_ORACLE_HH
#define AHQ_CLUSTER_ORACLE_HH

#include <vector>

#include "cluster/node.hh"
#include "core/entropy.hh"
#include "machine/layout.hh"

namespace ahq::exec
{
class ThreadPool;
}

namespace ahq::cluster
{

/** Search configuration. */
struct OracleConfig
{
    /**
     * Granularity of way enumeration (ways move in these steps);
     * cores move one at a time.
     */
    int wayStep = 2;

    /** Relative importance for the entropy objective. */
    double ri = core::kDefaultRelativeImportance;

    /** Tail percentile of the latency model. */
    double tailPercentile = 0.95;

    /**
     * Pool the search fans out on (the outer core-split loop);
     * nullptr = the process-global pool. The best layout, its
     * report and the evaluated count are bitwise identical at any
     * thread count: per-split bests are merged in enumeration
     * order with the same strict-< rule the serial scan used.
     */
    exec::ThreadPool *pool = nullptr;
};

/** The outcome of one oracle search. */
struct OracleResult
{
    machine::RegionLayout layout{machine::ResourceVector{}};
    core::EntropyReport report;

    /** Layouts evaluated during the search. */
    long evaluated = 0;
};

/**
 * Steady-state entropy of one candidate layout (no noise, no
 * repartition overhead, and a backlog only when saturated, held at
 * the generator's cap) — the objective the oracle minimises, under
 * the epoch simulator's LC tail rule (perf::lcTailSeconds) and the
 * default contention model.
 *
 * @param node The colocation.
 * @param layout Candidate layout.
 * @param policy Core-sharing policy for shared regions.
 * @param cfg Search configuration (model knobs).
 */
core::EntropyReport
steadyStateEntropy(const Node &node,
                   const machine::RegionLayout &layout,
                   perf::CoreSharePolicy policy,
                   const OracleConfig &cfg = {});

/**
 * Best fully-isolated static partition: one exclusive region per LC
 * app plus one BE pool (FairShare inside the pool).
 */
OracleResult bestIsolatedPartition(const Node &node,
                                   const OracleConfig &cfg = {});

/**
 * Best hybrid partition: one (possibly empty) isolated region per
 * LC app plus one shared region holding everyone, with LC priority
 * in the shared region (the ARQ family).
 */
OracleResult bestHybridPartition(const Node &node,
                                 const OracleConfig &cfg = {});

} // namespace ahq::cluster

#endif // AHQ_CLUSTER_ORACLE_HH
