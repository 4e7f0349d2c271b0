/**
 * @file
 * ResourceVector implementation.
 */

#include "machine/resources.hh"

#include <cassert>
#include <cstdio>

namespace ahq::machine
{

std::string
toString(ResourceKind kind)
{
    switch (kind) {
      case ResourceKind::Cores:
        return "cores";
      case ResourceKind::LlcWays:
        return "llc_ways";
      case ResourceKind::MemBw:
        return "mem_bw";
    }
    return "unknown";
}

int
ResourceVector::get(ResourceKind kind) const
{
    switch (kind) {
      case ResourceKind::Cores:
        return cores;
      case ResourceKind::LlcWays:
        return llcWays;
      case ResourceKind::MemBw:
        return memBw;
    }
    assert(false && "bad resource kind");
    return 0;
}

int &
ResourceVector::ref(ResourceKind kind)
{
    switch (kind) {
      case ResourceKind::Cores:
        return cores;
      case ResourceKind::LlcWays:
        return llcWays;
      case ResourceKind::MemBw:
        return memBw;
    }
    assert(false && "bad resource kind");
    return cores;
}

void
ResourceVector::set(ResourceKind kind, int value)
{
    ref(kind) = value;
}

ResourceVector &
ResourceVector::operator+=(const ResourceVector &o)
{
    cores += o.cores;
    llcWays += o.llcWays;
    memBw += o.memBw;
    return *this;
}

bool
ResourceVector::nonNegative() const
{
    return cores >= 0 && llcWays >= 0 && memBw >= 0;
}

bool
ResourceVector::empty() const
{
    return cores == 0 && llcWays == 0 && memBw == 0;
}

bool
ResourceVector::fitsWithin(const ResourceVector &o) const
{
    return cores <= o.cores && llcWays <= o.llcWays && memBw <= o.memBw;
}

std::string
ResourceVector::toString() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "{cores=%d, ways=%d, bw=%d}", cores,
                  llcWays, memBw);
    return buf;
}

} // namespace ahq::machine
