/**
 * @file
 * Machine description of the node the applications are colocated on,
 * with a factory for the paper's testbed (Table III).
 */

#ifndef AHQ_MACHINE_CONFIG_HH
#define AHQ_MACHINE_CONFIG_HH

#include <string>

#include "machine/resources.hh"

namespace ahq::machine
{

/**
 * Static description of one datacenter node.
 *
 * The "available" amounts may be smaller than the physical amounts to
 * model the resource-amount sweeps of Section III-A (e.g. restricting
 * the node to 6 of its 10 cores).
 */
struct MachineConfig
{
    std::string name = "generic";

    /** Physical core count (hyper-threading disabled, as in §V). */
    int totalCores = 10;

    /** Total LLC ways per set (CAT-partitionable). */
    int totalLlcWays = 20;

    /** LLC capacity in MiB (for the per-way capacity). */
    double llcSizeMib = 25.0;

    /** Peak usable memory bandwidth in GiB/s. */
    double memBandwidthGibps = 60.0;

    /** MBA-style bandwidth units the peak divides into. */
    int totalMemBwUnits = 10;

    /** Cores offered to the colocation (<= totalCores). */
    int availableCores = 10;

    /** LLC ways offered to the colocation (<= totalLlcWays). */
    int availableLlcWays = 20;

    /** Bandwidth units offered to the colocation. */
    int availableMemBwUnits = 10;

    /** Bandwidth of one MBA unit in GiB/s. */
    double gibpsPerBwUnit() const
    {
        return memBandwidthGibps / totalMemBwUnits;
    }

    /** The resources offered to the colocation as a vector. */
    ResourceVector availableResources() const
    {
        return {availableCores, availableLlcWays, availableMemBwUnits};
    }

    /** Restrict the available amounts (Section III-A sweeps). */
    MachineConfig withAvailable(int cores, int ways, int bw_units) const;

    /** Sanity-check internal consistency. */
    bool valid() const;

    /**
     * The paper's testbed: Intel Xeon E5-2630 v4, 10 cores at 2.2 GHz,
     * 25 MiB 20-way LLC, 7x16 GiB DDR4-2400 (Table III).
     */
    static MachineConfig xeonE52630v4();

    /**
     * A newer-generation part for scaling studies: Intel Xeon Gold
     * 6248-class, 20 cores, 27.5 MiB 11-way LLC (CAT with 11-way
     * CBMs), six-channel DDR4-2933.
     */
    static MachineConfig xeonGold6248();
};

} // namespace ahq::machine

#endif // AHQ_MACHINE_CONFIG_HH
