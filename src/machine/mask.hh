/**
 * @file
 * Bitmask types mirroring the OS/hardware allocation interfaces the
 * paper's testbed uses: taskset-style core affinity masks and Intel
 * CAT capacity bitmasks (CBMs) for LLC ways.
 *
 * Intel CAT requires CBMs to be a contiguous run of set bits; the
 * WayMask type enforces that, which in turn shapes how the layout
 * assigns ways to regions.
 */

#ifndef AHQ_MACHINE_MASK_HH
#define AHQ_MACHINE_MASK_HH

#include <cstdint>
#include <string>

namespace ahq::machine
{

/**
 * A core-affinity bitmask (taskset equivalent). Bit i set means core i
 * is usable.
 */
class CoreMask
{
  public:
    CoreMask() = default;

    /** Construct from raw bits. */
    explicit CoreMask(std::uint64_t bits) : bits_(bits) {}

    /** Mask of the first n cores starting at the given offset. */
    static CoreMask firstN(int n, int offset = 0);

    /** Whether the given core is in the mask. */
    bool contains(int core) const;

    /** True when no core is set. */
    bool empty() const { return bits_ == 0; }

    /** Set union. */
    CoreMask operator|(const CoreMask &o) const;

    bool operator==(const CoreMask &o) const = default;

    /** Raw bits. */
    std::uint64_t bits() const { return bits_; }

    /** Render as a hex mask, e.g. "0x3f". */
    std::string toString() const;

  private:
    std::uint64_t bits_ = 0;
};

/**
 * An Intel CAT capacity bitmask over LLC ways.
 *
 * Hardware constraint: the set bits must be contiguous and non-empty
 * when the mask is in use. A default-constructed mask is empty and
 * valid only as "no allocation".
 */
class WayMask
{
  public:
    WayMask() = default;

    /**
     * Construct a contiguous mask of the given width starting at the
     * given way.
     *
     * @param first_way Index of the lowest way.
     * @param num_ways Number of contiguous ways; 0 gives empty mask.
     */
    WayMask(int first_way, int num_ways);

    /** Whether the mask is empty. */
    bool empty() const { return numWays == 0; }

    /** Raw CBM bits as the hardware would see them. */
    std::uint64_t bits() const;

    bool operator==(const WayMask &o) const = default;

    /** Render as a hex CBM, e.g. "0xff000". */
    std::string toString() const;

  private:
    int firstWay = 0;
    int numWays = 0;
};

} // namespace ahq::machine

#endif // AHQ_MACHINE_MASK_HH
