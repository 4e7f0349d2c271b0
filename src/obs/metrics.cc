/**
 * @file
 * MetricsRegistry implementation.
 */

#include "obs/metrics.hh"

#include <algorithm>
#include <array>

namespace ahq::obs
{

namespace
{

/** Upper bounds of every histogram's finite buckets, ascending. */
constexpr std::array<double, 13> kBounds{
    0.1, 0.25, 0.5, 1.0,  2.5,   5.0,   10.0,
    25.0, 50.0, 100.0, 250.0, 500.0, 1000.0};

/** The bucket of v: the first with v <= bound, else overflow. */
std::size_t
bucketOf(double v)
{
    return static_cast<std::size_t>(
        std::lower_bound(kBounds.begin(), kBounds.end(), v) -
        kBounds.begin());
}

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
MetricsRegistry::histogramFor(std::string_view name)
{
    Histogram &h = entry(hists_, name);
    if (h.counts.empty())
        h.counts.assign(kBounds.size() + 1, 0);
    return h;
}

void
MetricsRegistry::observe(std::string_view name, double value)
{
    std::lock_guard<std::mutex> lk(m);
    Histogram &h = histogramFor(name);
    ++h.counts[bucketOf(value)];
    ++h.total;
    h.sum += value;
}

void
MetricsRegistry::observeBucketed(
    const std::string &name,
    const std::vector<std::pair<double, std::uint64_t>>
        &valueCounts,
    double sum)
{
    std::lock_guard<std::mutex> lk(m);
    Histogram &h = histogramFor(name);
    for (const auto &[value, n] : valueCounts) {
        h.counts[bucketOf(value)] += n;
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
    return {{kBounds.begin(), kBounds.end()}, it->second.counts,
            it->second.total, it->second.sum};
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
            if (i < kBounds.size())
                os << "<= " << kBounds[i];
            else
                os << "> " << kBounds.back();
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
