/**
 * @file
 * Core and way mask implementations.
 */

#include "machine/mask.hh"

#include <cassert>
#include <cstdio>

namespace ahq::machine
{

CoreMask
CoreMask::firstN(int n, int offset)
{
    assert(n >= 0 && offset >= 0 && n + offset <= 64);
    if (n == 0)
        return CoreMask(0);
    const std::uint64_t run =
        n == 64 ? ~0ull : ((1ull << n) - 1ull);
    return CoreMask(run << offset);
}

bool
CoreMask::contains(int core) const
{
    assert(core >= 0 && core < 64);
    return (bits_ >> core) & 1ull;
}

CoreMask
CoreMask::operator|(const CoreMask &o) const
{
    return CoreMask(bits_ | o.bits_);
}

std::string
CoreMask::toString() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(bits_));
    return buf;
}

WayMask::WayMask(int first_way, int num_ways)
    : firstWay(first_way), numWays(num_ways)
{
    assert(first_way >= 0 && num_ways >= 0);
    assert(first_way + num_ways <= 64);
}

std::uint64_t
WayMask::bits() const
{
    if (numWays == 0)
        return 0;
    const std::uint64_t run =
        numWays == 64 ? ~0ull : ((1ull << numWays) - 1ull);
    return run << firstWay;
}

std::string
WayMask::toString() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(bits()));
    return buf;
}

} // namespace ahq::machine
