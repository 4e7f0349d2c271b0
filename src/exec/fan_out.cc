/**
 * @file
 * NodeFanOut implementation.
 */

#include "exec/fan_out.hh"

#include <algorithm>
#include <array>
#include <optional>

#include "exec/parallel.hh"
#include "obs/span.hh"

namespace ahq::exec
{

void
NodeFanOut::run(ThreadPool &pool, std::size_t n, const Label &label,
                const Body &body)
{
    const bool tracing = parent_.tracing();
    const bool tagging = tracing || parent_.series != nullptr;
    const bool profiling = parent_.profiling();
    buffers_ = std::vector<obs::BufferTraceSink>(tracing ? n : 0);
    if (n == 0)
        return;
    const std::size_t drainers = drainingThreads(pool);
    const std::size_t size = profiling
        ? 1
        : std::min(kMaxGroup, (n + drainers - 1) / drainers);
    parallelFor(pool, (n + size - 1) / size, [&](std::size_t g) {
        const std::size_t first = g * size;
        const std::size_t count = std::min(size, n - first);
        std::array<obs::Scope, kMaxGroup> scopes;
        for (std::size_t k = 0; k < count; ++k) {
            const std::size_t i = first + k;
            obs::Scope &scope = scopes[k];
            scope = parent_;
            // A tag is needed when tracing (events say which node
            // they came from) and when a series registry is attached
            // (per-node keys keep concurrent recordings disjoint).
            if (tagging) {
                scope = parent_.tagged(parent_.scenario.empty()
                                           ? label(i)
                                           : parent_.scenario + "/" +
                                               label(i));
            }
            if (tracing)
                scope.sink = &buffers_[i];
        }
        std::optional<obs::SpanProfiler> prof;
        if (profiling)
            scopes[0].prof = &prof.emplace();
        body(first, {scopes.data(), count});
        if (profiling) {
            prof->flush(scopes[0]);
            parent_.prof->merge(*prof);
        }
    });
}

void
NodeFanOut::flush(std::size_t i) const
{
    if (parent_.tracing())
        buffers_[i].flushTo(*parent_.sink);
}

void
NodeFanOut::flushAll() const
{
    for (std::size_t i = 0; i < buffers_.size(); ++i)
        flush(i);
}

} // namespace ahq::exec
