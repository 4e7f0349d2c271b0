/**
 * @file
 * Resource kinds and the discrete resource vector the schedulers
 * allocate: processor cores, LLC ways (Intel CAT granularity) and
 * memory-bandwidth units (Intel MBA granularity).
 */

#ifndef AHQ_MACHINE_RESOURCES_HH
#define AHQ_MACHINE_RESOURCES_HH

#include <array>
#include <string>

namespace ahq::machine
{

/** The partitionable resource types, in PARTIES' FSM rotation order. */
enum class ResourceKind
{
    Cores = 0,
    LlcWays = 1,
    MemBw = 2,
};

/** Number of distinct resource kinds. */
inline constexpr int kNumResourceKinds = 3;

/** All resource kinds, in rotation order. */
inline constexpr std::array<ResourceKind, kNumResourceKinds>
    kAllResourceKinds = {ResourceKind::Cores, ResourceKind::LlcWays,
                         ResourceKind::MemBw};

/** Human-readable name of a resource kind. */
std::string toString(ResourceKind kind);

/**
 * A discrete amount of each resource kind.
 *
 * Units: cores are whole processor cores, LLC ways are CAT ways,
 * memory-bandwidth units are MBA-style tenths of peak bandwidth.
 */
struct ResourceVector
{
    int cores = 0;
    int llcWays = 0;
    int memBw = 0;

    /** Access a component by kind. */
    int get(ResourceKind kind) const;

    /** Mutable access to a component by kind. */
    int &ref(ResourceKind kind);

    /** Set a component by kind. */
    void set(ResourceKind kind, int value);

    /** Component-wise sum. */
    ResourceVector &operator+=(const ResourceVector &o);

    bool operator==(const ResourceVector &o) const = default;

    /** True when every component is >= 0. */
    bool nonNegative() const;

    /** True when every component is 0. */
    bool empty() const;

    /** True when every component is <= the other's. */
    bool fitsWithin(const ResourceVector &o) const;

    /** Render as "{cores=c, ways=w, bw=b}". */
    std::string toString() const;
};

} // namespace ahq::machine

#endif // AHQ_MACHINE_RESOURCES_HH
