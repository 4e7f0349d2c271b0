/**
 * @file
 * CPI model implementation. The per-evaluation methods are inline in
 * the header (the contention fixed point calls them in its innermost
 * loops); construction and the ideal-conditions helpers stay here.
 */

#include "perf/cpi.hh"

#include <cassert>

namespace ahq::perf
{

CpiModel::CpiModel(MissRateCurve mrc, CpiTraits traits)
    : mrc_(mrc), traits_(traits)
{
    assert(traits.cpiBase > 0.0);
    assert(traits.missPenaltyCycles >= 0.0);
}

double
CpiModel::cpiIdeal(double full_ways) const
{
    return cpi(full_ways, 1.0);
}

} // namespace ahq::perf
