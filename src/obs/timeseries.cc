/**
 * @file
 * TimeSeries fold and registry flush.
 */

#include "obs/timeseries.hh"

#include "obs/scope.hh"

namespace ahq::obs
{

TimeSeries::TimeSeries() : buckets_(kCapacity) {}

void
TimeSeries::foldTo(int epoch)
{
    while (foldLimit_ <= epoch)
        foldOnce();
}

void
TimeSeries::foldOnce()
{
    const std::size_t n = buckets_.size();
    const std::size_t half = (n + 1) / 2;
    for (std::size_t i = 0; i < half; ++i) {
        Bucket merged = buckets_[2 * i];
        if (2 * i + 1 < n)
            merged.combine(buckets_[2 * i + 1]);
        buckets_[i] = merged;
    }
    for (std::size_t i = half; i < n; ++i)
        buckets_[i] = Bucket{};
    stride_ *= 2;
    ++shift_;
    foldLimit_ = static_cast<long long>(stride_) * kCapacity;
}

TimeSeries &
TimeSeriesRegistry::handle(std::string_view scenario,
                           std::string_view name)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    auto key = std::make_pair(std::string(scenario),
                              std::string(name));
    auto it = series_.find(key);
    if (it == series_.end())
        it = series_
                 .emplace(std::move(key), TimeSeries())
                 .first;
    return it->second;
}

void
TimeSeriesRegistry::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    series_.clear();
}

void
TimeSeriesRegistry::flush(const Scope &scope) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total_points = 0;
    for (const auto &[key, ts] : series_) {
        total_points += ts.points();
        if (scope.sink == nullptr)
            continue;
        const int used = ts.bucketsInUse();
        std::vector<int> n(static_cast<std::size_t>(used));
        std::vector<double> mn(static_cast<std::size_t>(used));
        std::vector<double> mx(static_cast<std::size_t>(used));
        std::vector<double> sum(static_cast<std::size_t>(used));
        for (int i = 0; i < used; ++i) {
            const TimeSeries::Bucket &b = ts.bucket(i);
            const std::size_t ui = static_cast<std::size_t>(i);
            n[ui] = static_cast<int>(b.count);
            // Empty buckets render as zeros (count disambiguates)
            // so every array element stays a plain JSON number.
            mn[ui] = b.count > 0 ? b.min : 0.0;
            mx[ui] = b.count > 0 ? b.max : 0.0;
            sum[ui] = b.sum;
        }
        Event ev("series");
        ev.str("series", key.second)
            .integer("stride", ts.stride())
            .integer("epochs",
                     static_cast<long long>(ts.maxEpoch()) + 1)
            .integer("capacity", TimeSeries::kCapacity)
            .integer("points",
                     static_cast<long long>(ts.points()))
            .ints("n", n)
            .nums("min", mn)
            .nums("max", mx)
            .nums("sum", sum);
        // The scenario header comes from the series key: series
        // recorded under per-job/per-node tags flush under those
        // tags no matter which scope drives the flush.
        Scope out = scope;
        out.scenario = key.first;
        out.epoch = -1;
        out.emit(ev);
    }
    if (scope.metrics != nullptr && !series_.empty()) {
        scope.count("ts.series",
                    static_cast<double>(series_.size()));
        scope.count("ts.points",
                    static_cast<double>(total_points));
    }
}

} // namespace ahq::obs
