#include "obs/span.hh"

#include <bit>
#include <utility>
#include <vector>

#include "obs/alloc.hh"

namespace ahq::obs
{

namespace
{

/** Upper bound (inclusive, ns) of log2 bucket `idx`. */
std::uint64_t
bucketUpperNs(std::size_t idx)
{
    if (idx == 0)
        return 0;
    if (idx >= 64)
        return UINT64_MAX;
    return (std::uint64_t{1} << idx) - 1;
}

std::size_t
bucketIndex(std::uint64_t ns)
{
    const auto w = static_cast<std::size_t>(std::bit_width(ns));
    return w < SpanProfiler::kBuckets ? w
                                      : SpanProfiler::kBuckets - 1;
}

/**
 * One stack of open spans per thread. The shared `path` string is
 * appended to on open and truncated on close, so building a child
 * path is one append — no per-span allocation once the string has
 * grown. `ctxStart` marks where the innermost profiler's root
 * begins: a span whose profiler differs from the top frame's does
 * not inherit the foreign prefix.
 */
struct Frame
{
    SpanProfiler *prof;
    std::size_t prevLen;
    std::size_t ctxStart;
};

struct TlState
{
    std::string path;
    std::vector<Frame> frames;
};

TlState &
tls()
{
    static thread_local TlState t;
    return t;
}

} // namespace

std::uint64_t
SpanProfiler::Stats::quantileNs(double q) const
{
    if (count == 0)
        return 0;
    const double threshold = q * static_cast<double>(count);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        cum += buckets[i];
        if (static_cast<double>(cum) >= threshold)
            return std::min(bucketUpperNs(i), maxNs);
    }
    return maxNs;
}

void
SpanProfiler::record(std::string_view path, std::uint64_t ns,
                     std::uint64_t allocs)
{
    std::lock_guard<std::mutex> lock(m_);
    auto it = spans_.find(path);
    if (it == spans_.end())
        it = spans_.emplace(std::string(path), Stats{}).first;
    Stats &s = it->second;
    s.count += 1;
    s.totalNs += ns;
    if (ns > s.maxNs)
        s.maxNs = ns;
    s.allocs += allocs;
    s.buckets[bucketIndex(ns)] += 1;
}

void
SpanProfiler::merge(const SpanProfiler &other)
{
    const auto theirs = other.snapshot();
    std::lock_guard<std::mutex> lock(m_);
    for (const auto &[path, st] : theirs) {
        auto &s = spans_[path];
        s.count += st.count;
        s.totalNs += st.totalNs;
        if (st.maxNs > s.maxNs)
            s.maxNs = st.maxNs;
        s.allocs += st.allocs;
        for (std::size_t i = 0; i < kBuckets; ++i)
            s.buckets[i] += st.buckets[i];
    }
}

std::map<std::string, SpanProfiler::Stats, std::less<>>
SpanProfiler::snapshot() const
{
    std::lock_guard<std::mutex> lock(m_);
    return spans_;
}

void
SpanProfiler::flush(const Scope &scope) const
{
    if (scope.sink == nullptr && scope.metrics == nullptr)
        return;
    const auto snap = snapshot();
    for (const auto &[path, st] : snap) {
        const auto slash = path.rfind('/');
        const std::string name =
            slash == std::string::npos ? path
                                       : path.substr(slash + 1);
        const std::string parent =
            slash == std::string::npos ? std::string()
                                       : path.substr(0, slash);
        long long depth = 0;
        for (char c : path)
            if (c == '/')
                ++depth;

        Event ev("span");
        ev.str("path", path).str("name", name);
        if (!parent.empty())
            ev.str("parent", parent);
        ev.integer("depth", depth)
            .integer("count",
                     static_cast<long long>(st.count));
        const double totalMs =
            static_cast<double>(st.totalNs) / 1e6;
        if (scope.wallClock) {
            ev.num("total_ms", totalMs)
                .num("mean_ms",
                     totalMs / static_cast<double>(st.count))
                .num("p99_ms",
                     static_cast<double>(st.quantileNs(0.99)) /
                         1e6)
                .num("max_ms",
                     static_cast<double>(st.maxNs) / 1e6)
                .integer("allocs",
                         static_cast<long long>(st.allocs));
        }
        scope.emit(ev);

        if (scope.metrics != nullptr) {
            scope.metrics->add("prof." + path + ".calls",
                               static_cast<double>(st.count));
            if (scope.wallClock) {
                // Allocation totals depend on buffer warm-up (and
                // thus on job placement), so like wall time they
                // ride on the wallClock opt-in.
                scope.metrics->add("prof." + path + ".allocs",
                                   static_cast<double>(st.allocs));
            }
            std::vector<std::pair<double, std::uint64_t>> vc;
            for (std::size_t i = 0; i < kBuckets; ++i)
                if (st.buckets[i] != 0)
                    vc.emplace_back(
                        static_cast<double>(bucketUpperNs(i)) /
                            1e6,
                        st.buckets[i]);
            scope.metrics->observeBucketed("prof." + path + ".ms",
                                           vc, totalMs);
        }
    }
}

void
Span::open(SpanProfiler *prof, std::string_view name)
{
    prof_ = prof;
    auto &t = tls();
    Frame f;
    f.prof = prof;
    f.prevLen = t.path.size();
    if (!t.frames.empty() && t.frames.back().prof == prof) {
        f.ctxStart = t.frames.back().ctxStart;
        t.path += '/';
    } else {
        f.ctxStart = t.path.size();
    }
    t.path.append(name.data(), name.size());
    t.frames.push_back(f);
    allocStart_ = threadAllocCount();
    start_ = std::chrono::steady_clock::now();
}

void
Span::close()
{
    const auto elapsed =
        std::chrono::steady_clock::now() - start_;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            elapsed)
            .count());
    auto &t = tls();
    if (t.frames.empty())
        return;
    const Frame f = t.frames.back();
    prof_->record(std::string_view(t.path).substr(f.ctxStart), ns,
                  threadAllocCount() - allocStart_);
    t.path.resize(f.prevLen);
    t.frames.pop_back();
}

} // namespace ahq::obs
