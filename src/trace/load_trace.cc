/**
 * @file
 * Load trace implementations.
 */

#include "trace/load_trace.hh"

#include <cassert>
#include <cmath>

namespace ahq::trace
{

ConstantTrace::ConstantTrace(double load_fraction)
    : load(load_fraction)
{
    assert(load_fraction >= 0.0);
}

double
ConstantTrace::at(double) const
{
    return load;
}

StepTrace::StepTrace(std::vector<std::pair<double, double>> steps)
    : steps_(std::move(steps))
{
    assert(!steps_.empty());
    for (std::size_t i = 1; i < steps_.size(); ++i)
        assert(steps_[i].first >= steps_[i - 1].first);
}

double
StepTrace::at(double time_s) const
{
    double load = steps_.front().second;
    for (const auto &[start, value] : steps_) {
        if (time_s >= start)
            load = value;
        else
            break;
    }
    return load;
}

DiurnalTrace::DiurnalTrace(double low, double high, double period_s)
    : low_(low), high_(high), period(period_s)
{
    assert(low >= 0.0 && high >= low && period_s > 0.0);
}

double
DiurnalTrace::at(double time_s) const
{
    const double phase = 2.0 * M_PI * time_s / period;
    // Trough at t = 0 ("night"), peak at half period ("day").
    return low_ + (high_ - low_) * 0.5 * (1.0 - std::cos(phase));
}

std::unique_ptr<LoadTrace>
fig13XapianTrace()
{
    // 250 s total: 20 s ramp levels up to 90% and back down.
    return std::make_unique<StepTrace>(
        std::vector<std::pair<double, double>>{
            {0.0, 0.10},
            {20.0, 0.30},
            {40.0, 0.10},
            {60.0, 0.50},
            {80.0, 0.30},
            {100.0, 0.70},
            {120.0, 0.90},
            {140.0, 0.50},
            {160.0, 0.70},
            {180.0, 0.30},
            {200.0, 0.50},
            {220.0, 0.10},
        });
}

} // namespace ahq::trace
