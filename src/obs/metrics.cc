/**
 * @file
 * MetricsRegistry implementation.
 */

#include "obs/metrics.hh"

#include <algorithm>
#include <iomanip>

namespace ahq::obs
{

const std::vector<double> &
MetricsRegistry::defaultBounds()
{
    static const std::vector<double> bounds{
        0.1, 0.25, 0.5, 1.0,  2.5,   5.0,   10.0,
        25.0, 50.0, 100.0, 250.0, 500.0, 1000.0};
    return bounds;
}

namespace
{

/** The entry for `name`, value-initialised on first use. */
template <typename Map>
typename Map::mapped_type &
entry(Map &map, std::string_view name)
{
    auto it = map.find(name);
    if (it == map.end())
        it = map.emplace(std::string(name), typename Map::mapped_type{})
                 .first;
    return it->second;
}

} // namespace

void
MetricsRegistry::add(std::string_view name, double delta)
{
    std::lock_guard<std::mutex> lk(m);
    entry(counters_, name) += delta;
}

MetricsRegistry::Histogram &
MetricsRegistry::histogramFor(std::string_view name,
                              const std::vector<double> &bounds)
{
    Histogram &h = entry(hists_, name);
    if (h.counts.empty()) {
        // First use: the bucket layout is fixed from here on.
        h.bounds = bounds;
        std::sort(h.bounds.begin(), h.bounds.end());
        h.counts.assign(h.bounds.size() + 1, 0);
    }
    return h;
}

void
MetricsRegistry::observe(std::string_view name, double value,
                         const std::vector<double> &bounds)
{
    std::lock_guard<std::mutex> lk(m);
    Histogram &h = histogramFor(name, bounds);
    const auto bucket = static_cast<std::size_t>(
        std::lower_bound(h.bounds.begin(), h.bounds.end(), value) -
        h.bounds.begin());
    ++h.counts[bucket];
    ++h.total;
    h.sum += value;
}

void
MetricsRegistry::observeBucketed(
    const std::string &name,
    const std::vector<std::pair<double, std::uint64_t>>
        &valueCounts,
    double sum, const std::vector<double> &bounds)
{
    std::lock_guard<std::mutex> lk(m);
    Histogram &h = histogramFor(name, bounds);
    for (const auto &[value, n] : valueCounts) {
        const auto bucket = static_cast<std::size_t>(
            std::lower_bound(h.bounds.begin(), h.bounds.end(),
                             value) -
            h.bounds.begin());
        h.counts[bucket] += n;
        h.total += n;
    }
    h.sum += sum;
}

double
MetricsRegistry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(m);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

HistogramSnapshot
MetricsRegistry::histogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(m);
    const auto it = hists_.find(name);
    if (it == hists_.end())
        return {};
    return {it->second.bounds, it->second.counts, it->second.total,
            it->second.sum};
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    // Copy out first so self-merge and lock ordering are non-issues.
    std::map<std::string, double, std::less<>> counters;
    std::map<std::string, Histogram, std::less<>> hists;
    {
        std::lock_guard<std::mutex> lk(other.m);
        counters = other.counters_;
        hists = other.hists_;
    }
    std::lock_guard<std::mutex> lk(m);
    for (const auto &[name, v] : counters)
        counters_[name] += v;
    for (const auto &[name, h] : hists) {
        auto it = hists_.find(name);
        if (it == hists_.end()) {
            hists_.emplace(name, h);
            continue;
        }
        Histogram &mine = it->second;
        if (mine.bounds != h.bounds) {
            // Incompatible layouts: keep ours, fold totals only.
            mine.total += h.total;
            mine.sum += h.sum;
            continue;
        }
        for (std::size_t i = 0; i < mine.counts.size(); ++i)
            mine.counts[i] += h.counts[i];
        mine.total += h.total;
        mine.sum += h.sum;
    }
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lk(m);
    counters_.clear();
    hists_.clear();
}

bool
MetricsRegistry::empty() const
{
    std::lock_guard<std::mutex> lk(m);
    return counters_.empty() && hists_.empty();
}

void
MetricsRegistry::print(std::ostream &os) const
{
    std::lock_guard<std::mutex> lk(m);
    for (const auto &[name, v] : counters_)
        os << "counter " << name << " = " << v << "\n";
    for (const auto &[name, h] : hists_) {
        os << "histogram " << name << " count = " << h.total
           << " sum = " << h.sum << "\n";
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            if (h.counts[i] == 0)
                continue;
            os << "  ";
            if (i < h.bounds.size())
                os << "<= " << h.bounds[i];
            else
                os << "> " << h.bounds.back();
            os << ": " << h.counts[i] << "\n";
        }
    }
}

MetricsRegistry &
globalMetrics()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace ahq::obs
