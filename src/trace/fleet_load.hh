/**
 * @file
 * Datacenter-scale load synthesis: diurnal traffic curves, Zipf
 * tenant skew and flash crowds over N nodes x M tenants. The paper
 * motivates E_S with "high load in the daytime, low at night"
 * datacenters serving millions of users; this generator makes that a
 * runnable scenario by assigning every LC slot in the fleet to a
 * tenant (popularity-skewed) and giving each tenant a deterministic
 * time-varying load trace shared by all of its replicas.
 */

#ifndef AHQ_TRACE_FLEET_LOAD_HH
#define AHQ_TRACE_FLEET_LOAD_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "stats/zipf.hh"
#include "trace/load_trace.hh"

namespace ahq::trace
{

/**
 * Size and seed of the synthesized global load (defaults = small
 * fleet). The load shape itself (peak range, day length, flash
 * crowds, cap) is fixed in fleet_load.cc.
 */
struct FleetLoadConfig
{
    /** Nodes in the fleet. */
    int numNodes = 16;

    /** Latency-critical application slots per node. */
    int lcPerNode = 2;

    /** Best-effort filler applications per node. */
    int bePerNode = 1;

    /**
     * Distinct tenants (services). Each LC slot is assigned one
     * tenant, Zipf-skewed, so popular tenants replicate across many
     * nodes while the tail shares leftovers.
     */
    int numTenants = 64;

    /** Zipf skew exponent over tenant popularity ranks. */
    double zipfSkew = 1.1;

    /** Seed for tenant assignment, phases and flash gating. */
    std::uint64_t seed = 42;
};

/**
 * Deterministic global load generator.
 *
 * All randomness (tenant popularity draws, diurnal phases, flash
 * gating) is a pure function of (config.seed, tenant rank) or
 * (config.seed, node, slot) on dedicated RNG splits, so any
 * subrange of the fleet can be materialized independently — node
 * 9731's workload is the same whether the fleet simulates 10 nodes
 * or 10k, and whether nodes build in parallel or serially.
 *
 * Tenant traces are precomputed once in the constructor and shared
 * (shared_ptr) across every node that hosts a replica: a 10k-node
 * fleet holds M tenant traces, not N x M.
 */
class FleetLoadGenerator
{
  public:
    explicit FleetLoadGenerator(FleetLoadConfig config = {});

    /** The shape this generator was built with. */
    const FleetLoadConfig &config() const { return cfg; }

    /**
     * Tenant popularity rank (1-based, 1 = most popular) hosted by
     * the given LC slot of the given node. Pure function of
     * (seed, node, slot).
     */
    std::uint64_t tenant(int node, int slot) const;

    /**
     * The shared load trace of the given tenant rank (1-based).
     * Traces are immutable after construction; the pointer is
     * non-const so it slots directly into ColocatedApp::load.
     */
    std::shared_ptr<LoadTrace> tenantTrace(std::uint64_t rank) const;

    /** Peak (daytime) load fraction of the given tenant rank. */
    double tenantPeakLoad(std::uint64_t rank) const;

  private:
    FleetLoadConfig cfg;
    stats::ZipfDistribution zipf;
    std::vector<std::shared_ptr<LoadTrace>> traces;
    std::vector<double> peaks;
};

} // namespace ahq::trace

#endif // AHQ_TRACE_FLEET_LOAD_HH
