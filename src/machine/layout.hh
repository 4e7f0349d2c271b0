/**
 * @file
 * Region-based resource layouts.
 *
 * A RegionLayout partitions the node's available resources into
 * regions. ARQ's layouts have one shared region plus per-LC-app
 * isolated regions; PARTIES/CLITE layouts are fully isolated (one
 * region per application); Unmanaged/LC-first layouts are a single
 * shared region. Schedulers mutate layouts one resource unit at a
 * time via moveResource(), mirroring how CAT/taskset/MBA are
 * reprogrammed on the paper's testbed.
 */

#ifndef AHQ_MACHINE_LAYOUT_HH
#define AHQ_MACHINE_LAYOUT_HH

#include <string>
#include <vector>

#include "machine/mask.hh"
#include "machine/resources.hh"
#include "machine/types.hh"

namespace ahq::machine
{

/** One resource region and the applications allowed to run in it. */
struct Region
{
    std::string name;

    /** Shared regions may host several applications concurrently. */
    bool shared = false;

    /** Resources assigned to this region. */
    ResourceVector res;

    /** Applications allowed to use this region. */
    std::vector<AppId> members;

    /** Whether the given app is a member. */
    bool hasMember(AppId app) const;
};

/** Concrete hardware masks derived from a layout, for reporting. */
struct ConcreteMasks
{
    std::vector<CoreMask> coreMasks; // indexed by RegionId
    std::vector<WayMask> wayMasks;   // indexed by RegionId
};

/**
 * A complete allocation of the node's available resources to regions.
 *
 * Invariants (checked by valid()):
 *  - every region's resources are non-negative;
 *  - the sum of region resources fits within the available resources;
 *  - every application that is a member of at least one region can
 *    reach at least one core and one LLC way through its regions.
 */
class RegionLayout
{
  public:
    /** Create an empty layout over the given available resources. */
    explicit RegionLayout(ResourceVector available);

    /** Append a region; returns its id. */
    RegionId addRegion(Region region);

    /** Number of regions. */
    int numRegions() const { return static_cast<int>(regions_.size()); }

    /** Access a region. @pre 0 <= id < numRegions(). */
    const Region &region(RegionId id) const;

    /** Mutable access to a region. @pre 0 <= id < numRegions(). */
    Region &region(RegionId id);

    /** Id of the first shared region, or kNoRegion. */
    RegionId sharedRegion() const;

    /**
     * Id of the app's isolated region (a non-shared region whose only
     * member is the app), or kNoRegion.
     */
    RegionId isolatedRegionOf(AppId app) const;

    /** All regions the app is a member of. */
    std::vector<RegionId> regionsOf(AppId app) const;

    /** All member apps across all regions (deduplicated). */
    std::vector<AppId> allApps() const;

    /** Resources offered by the node. */
    ResourceVector available() const { return available_; }

    /** Sum of resources across regions. */
    ResourceVector allocated() const;

    /** Total of the given resource the app can reach via its regions. */
    int reachable(AppId app, ResourceKind kind) const;

    /** Check the layout invariants. */
    bool valid() const;

    /**
     * Move units of one resource kind between regions.
     *
     * Refuses (returns false, layout unchanged) when the source lacks
     * the units or when the move would leave some member application
     * without any reachable core or LLC way.
     *
     * @param kind Resource kind to move.
     * @param from Source region.
     * @param to Destination region.
     * @param units Number of units; must be > 0.
     */
    bool moveResource(ResourceKind kind, RegionId from, RegionId to,
                      int units = 1);

    /**
     * Assign concrete contiguous core and CAT way masks to regions in
     * region order, for display and for hardware programming.
     */
    ConcreteMasks concreteMasks() const;

    /** Multi-line human-readable rendering. */
    std::string toString() const;

    /**
     * Factory: one shared region holding every application and all
     * available resources (the Unmanaged / LC-first layout).
     */
    static RegionLayout fullyShared(ResourceVector available,
                                    const std::vector<AppId> &apps);

    /**
     * Factory: one isolated region per application, resources divided
     * as evenly as integer units allow, remainders to the earliest
     * regions (the PARTIES / CLITE starting layout).
     */
    static RegionLayout evenlyIsolated(ResourceVector available,
                                       const std::vector<AppId> &apps);

    /**
     * Factory: the ARQ starting layout — an (initially empty)
     * isolated region per LC application plus one shared region
     * holding all available resources, whose members are every
     * application.
     */
    static RegionLayout arqInitial(ResourceVector available,
                                   const std::vector<AppId> &lc_apps,
                                   const std::vector<AppId> &be_apps);

  private:
    ResourceVector available_;
    std::vector<Region> regions_;
};

} // namespace ahq::machine

#endif // AHQ_MACHINE_LAYOUT_HH
