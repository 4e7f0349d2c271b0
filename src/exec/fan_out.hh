/**
 * @file
 * The node fan-out driver: the one way the repo runs a batch of
 * independent node simulations across the pool.
 *
 * Fleet::run (both crash phases), ClusterScheduler rounds, the
 * experiment harness and ScenarioRunner all hand their body to
 * NodeFanOut, which calls it with groups of consecutive nodes (the
 * simulators step a group's nodes in lock-step, so their contention
 * model misses solve as lanes of one pass) and owns the decisions
 * that keep such a batch deterministic at any thread count:
 *
 *  - groups: min(4, ceil(n / threads draining)) nodes each, so every
 *    draining thread has work on a small batch; one node each when
 *    profiling, because spans nest on a per-thread stack and
 *    interleaved nodes would nest under each other's paths;
 *  - seeds: nodeSeed() is the one per-node salting rule;
 *  - tags: node i records under "<parent scenario>/<label(i)>"
 *    (just "<label(i)>" when the parent scenario is empty);
 *  - private telemetry: while tracing, node i writes into its own
 *    BufferTraceSink; while profiling, into its own SpanProfiler,
 *    whose span events close node i's buffer and whose aggregates
 *    merge into the parent profiler (integer sums, so the merge
 *    order does not matter);
 *  - the ordered flush: buffers replay into the parent sink in node
 *    order (flush(i) / flushAll()), so trace bytes do not depend on
 *    which worker ran which node.
 *
 * With no sink, series registry or profiler attached, run() builds
 * no buffers, profilers or tag strings: each node gets a plain copy
 * of the parent scope.
 */

#ifndef AHQ_EXEC_FAN_OUT_HH
#define AHQ_EXEC_FAN_OUT_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "obs/scope.hh"
#include "obs/trace_sink.hh"

namespace ahq::exec
{

class ThreadPool;

/**
 * Seed of node `id` in a batch seeded from `base`. `salt`
 * decorrelates batches that reuse node ids (crash phases, cluster
 * rounds).
 */
inline std::uint64_t
nodeSeed(std::uint64_t base, std::size_t id, std::uint64_t salt = 0)
{
    return base + 0x9e37 * (id + 1) + salt;
}

/** Runs one batch of node bodies; see the file comment. */
class NodeFanOut
{
  public:
    /** Tag of node i under the parent scenario. */
    using Label = std::function<std::string(std::size_t)>;

    /**
     * The runs of nodes [first, first + scopes.size()), node
     * first + k recording into scopes[k].
     */
    using Body = std::function<void(std::size_t first,
                                    std::span<const obs::Scope> scopes)>;

    /** Most nodes a group holds. */
    static constexpr std::size_t kMaxGroup = 4;

    /**
     * @param parent The batch's telemetry; what it points to must
     *        outlive the last flush().
     */
    explicit NodeFanOut(obs::Scope parent) : parent_(std::move(parent))
    {
    }

    /**
     * Run body over groups of consecutive nodes covering [0, n),
     * across the pool, and return when all are done. The first
     * exception a body throws is rethrown here. Each call starts
     * fresh node buffers, so flush the previous batch first.
     */
    void run(ThreadPool &pool, std::size_t n, const Label &label,
             const Body &body);

    /** Replay node i's buffered trace into the parent sink. */
    void flush(std::size_t i) const;

    /** flush() every node, in node order. */
    void flushAll() const;

  private:
    obs::Scope parent_;
    std::vector<obs::BufferTraceSink> buffers_;
};

} // namespace ahq::exec

#endif // AHQ_EXEC_FAN_OUT_HH
