/**
 * @file
 * AppBuilder implementation.
 */

#include "apps/builder.hh"

#include <stdexcept>

namespace ahq::apps
{

AppBuilder::AppBuilder(std::string name)
    : name_(std::move(name))
{
}

AppBuilder &
AppBuilder::maxLoadQps(double qps)
{
    maxLoad_ = qps;
    return *this;
}

AppBuilder &
AppBuilder::tailThresholdMs(double ms)
{
    threshold_ = ms;
    return *this;
}

AppBuilder &
AppBuilder::idealTailAt20Ms(double ms)
{
    idealTail_ = ms;
    return *this;
}

AppBuilder &
AppBuilder::cache(double mpki_max, double mpki_min, double ways_half)
{
    mpkiMax_ = mpki_max;
    mpkiMin_ = mpki_min;
    waysHalf_ = ways_half;
    return *this;
}

AppProfile
AppBuilder::build() const
{
    if (name_.empty())
        throw std::invalid_argument("profile needs a name");
    if (mpkiMax_ < mpkiMin_ || mpkiMin_ < 0.0 || waysHalf_ <= 0.0) {
        throw std::invalid_argument(name_ +
                                    ": inconsistent cache traits");
    }
    if (!maxLoad_ || !threshold_ || !idealTail_) {
        throw std::invalid_argument(
            name_ + ": LC profiles need maxLoadQps, "
                    "tailThresholdMs and idealTailAt20Ms");
    }
    if (*maxLoad_ <= 0.0)
        throw std::invalid_argument(name_ + ": max load must be > 0");
    if (*idealTail_ <= 0.0 || *idealTail_ >= *threshold_) {
        throw std::invalid_argument(
            name_ + ": need 0 < ideal tail < threshold");
    }

    AppProfile p;
    p.name = name_;
    p.cpi = perf::CpiModel(
        perf::MissRateCurve(mpkiMax_, mpkiMin_, waysHalf_),
        perf::CpiTraits{});
    calibrateLcProfile(p, {*maxLoad_, *threshold_, *idealTail_});
    return p;
}

} // namespace ahq::apps
